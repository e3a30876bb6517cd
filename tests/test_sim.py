import math

import numpy as np
import pytest

from planarmimic import sim as sim_module
from planarmimic.sim import (DEMO_FRAMES, MOTIONS, NOMINAL_JOINT_POS, STATE_ARRAYS,
                             PlanarEnv, SimParams, StepBatch,
                             check_termination_arrays, generate_demo_set,
                             generate_rough_demo)


def quiet_params(**kwargs):
    defaults = dict(reset_noise_joint=0.0, reset_noise_height=0.0)
    defaults.update(kwargs)
    return SimParams(**defaults)


def terminated(params, base_z, pitch=0.0):
    """The termination test for one body."""
    return bool(check_termination_arrays(np.array([base_z]), np.cos([pitch]),
                                         np.sin([pitch]), params)[0])


class TestReset:
    def test_noise_free_reset_is_nominal(self):
        env = PlanarEnv(quiet_params(), num_envs=1, seed=0)
        assert env.z[0] == pytest.approx(quiet_params().nominal_height())
        assert np.array_equal(env.q[0], NOMINAL_JOINT_POS)
        assert env.vx[0] == env.vz[0] == env.om[0] == 0.0
        # feet exactly on the ground at the nominal pose
        assert np.allclose(oracle_foot_kinematics(env)[4], 0.0, atol=1e-12)

    def test_same_seed_same_state(self):
        a = PlanarEnv(SimParams(), num_envs=3, seed=42)
        b = PlanarEnv(SimParams(), num_envs=3, seed=42)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.q, b.q)

    def test_mass_perturbation_range(self):
        params = SimParams(mass_perturb_low=-0.5, mass_perturb_high=1.0)
        env = PlanarEnv(params, num_envs=64, seed=7)
        assert np.all(env.mass >= params.body_mass - 0.5)
        assert np.all(env.mass <= params.body_mass + 1.0)
        assert env.mass.std() > 0.1  # actually randomized

    def test_mass_perturbation_off_by_default(self):
        env = PlanarEnv(SimParams(), num_envs=8, seed=7)
        assert np.all(env.mass == SimParams().body_mass)


class TestBallisticFlight:
    def test_projectile_oracle(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        z0, vz0 = 2.0, 0.5
        env.z[0] = z0
        env.vz[0] = vz0
        steps = int(0.5 / params.control_dt)
        for _ in range(steps):
            env.step(np.zeros((1, 4)))
        t = steps * params.control_dt
        expected = z0 + vz0 * t - 0.5 * params.gravity * t ** 2
        assert abs(env.z[0] - expected) < 5e-3

    def test_pitch_rate_constant_in_flight(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        env.z[0] = 3.0
        env.om[0] = 2.0
        env.step(np.zeros((1, 4)))
        assert env.om[0] == pytest.approx(2.0)

    def test_horizontal_velocity_preserved(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        env.z[0] = 3.0
        env.vx[0] = 1.0
        env.step(np.zeros((1, 4)))
        assert env.vx[0] == pytest.approx(1.0)


class TestStandingEquilibrium:
    def test_height_steady_over_one_second(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        # let the contact spring settle, then watch for a second
        for _ in range(25):
            env.step(np.zeros((1, 4)))
        heights = []
        for _ in range(50):
            env.step(np.zeros((1, 4)))
            heights.append(float(env.z[0]))
        assert max(heights) - min(heights) < 2e-3
        assert not env.terminal[0]

    def test_standing_penetration_under_5mm(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        for _ in range(50):
            env.step(np.zeros((1, 4)))
        fz = oracle_foot_kinematics(env)[4]
        assert np.all(fz > -5e-3)


class TestTermination:
    def test_upright_high_is_fine(self):
        assert not terminated(quiet_params(), base_z=0.3)

    def test_touching_ground(self):
        assert terminated(quiet_params(), base_z=0.0)

    def test_rotated_corner_below_ground(self):
        # rotated-rectangle oracle: corner offsets under a 90 degree pitch
        params = quiet_params()
        base_z, pitch = 0.12, math.pi / 2
        corners = []
        for cx in (-params.half_length, params.half_length):
            for cz in (-params.half_height, params.half_height):
                c, s = math.cos(pitch), math.sin(pitch)
                corners.append(base_z + s * cx + c * cz)
        assert min(corners) <= 0.0
        assert terminated(params, base_z, pitch)

    def test_boundary_height_upright(self):
        params = quiet_params()
        assert terminated(params, base_z=params.half_height)
        assert not terminated(params, base_z=params.half_height + 1e-6)

    def test_terminal_flag_set_by_step(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        env.z[0] = 1.0
        env.pitch[0] = math.pi / 2 + 0.3  # past vertical, will crash
        env.vz[0] = -4.0
        crashed = False
        for _ in range(60):
            res = env.step(np.zeros((1, 4)))
            if res.terminal[0]:
                crashed = True
                break
        assert crashed


class TestDeterminism:
    def test_step_is_pure(self):
        # a step depends on the loaded state and the action alone: not on
        # the env's own reset draws or on what it stepped before
        params = quiet_params()
        action = np.array([[0.2, -0.1, 0.05, 0.3]])
        env = PlanarEnv(params, num_envs=1, seed=0)
        start = env_state(env)
        r1 = env.step(action)
        s1 = env_state(env)
        other = PlanarEnv(params, num_envs=1, seed=99)
        other.step(-action)
        load_env_state(other, start)
        r2 = other.step(action)
        assert other.z[0] == env.z[0]
        assert other.vx[0] == env.vx[0]
        assert np.array_equal(other.q[0], env.q[0])
        assert np.array_equal(r1.joint_torques, r2.joint_torques)
        assert_same_state(env_state(other), s1)

    def test_rollout_independent_of_batch_size(self):
        # env i is seeded by (seed, i), so the same index in any batch size
        # (any "worker count") must produce a bit-identical trajectory
        params = SimParams()
        rng = np.random.default_rng(0)
        actions = rng.normal(size=(10, 4)) * 0.3
        wide = PlanarEnv(params, num_envs=4, seed=5)
        narrow = PlanarEnv(params, num_envs=3, seed=5)
        for t in range(10):
            wide.step(np.tile(actions[t], (4, 1)))
            narrow.step(np.tile(actions[t], (3, 1)))
        for i in range(3):
            assert wide.z[i] == narrow.z[i]
            assert wide.x[i] == narrow.x[i]
            assert wide.pitch[i] == narrow.pitch[i]
            assert np.array_equal(wide.q[i], narrow.q[i])

    def test_sequence_seeded_row_replays_one_env(self):
        # row i of an env seeded with [s_0, s_1, ...] draws what a one-env
        # env seeded with s_i draws, resets included, and steps bit-identically
        params = SimParams()
        seeds = [17, 3, 2 ** 31 - 1]
        rng = np.random.default_rng(1)
        actions = rng.normal(size=(200, len(seeds), 4))
        batch = PlanarEnv(params, num_envs=len(seeds), seed=seeds)
        singles = [PlanarEnv(params, num_envs=1, seed=s) for s in seeds]
        fields = ("x", "z", "pitch", "vx", "vz", "om", "q", "qd", "mass",
                  "flight_angle", "terminal", "airborne")
        for t in range(200):
            if t == 120:
                mask = np.array([True, False, True])
                batch.reset_rows(mask)
                for single, m in zip(singles, mask):
                    if m:
                        single.reset_rows(np.ones(1, dtype=bool))
            result = batch.step(actions[t])
            for i, single in enumerate(singles):
                one = single.step(actions[t, i][None])
                for name in fields:
                    assert np.array_equal(getattr(batch, name)[i],
                                          getattr(single, name)[0]), (t, i, name)
                assert np.array_equal(result.joint_torques[i], one.joint_torques[0])
                assert result.terminal[i] == one.terminal[0]

    def test_seed_sequence_length_must_match(self):
        with pytest.raises(ValueError, match="seeds"):
            PlanarEnv(SimParams(), num_envs=3, seed=[1, 2])

    def test_non_finite_action_rejected(self):
        env = PlanarEnv(quiet_params(), num_envs=1, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            env.step(np.full((1, 4), np.nan))

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (1, 3), (1, 4, 1)])
    def test_wrong_action_shape_rejected(self, shape):
        env = PlanarEnv(quiet_params(), num_envs=1, seed=0)
        with pytest.raises(ValueError, match=r"actions must have shape \(1, 4\)"):
            env.step(np.zeros(shape))


class TestFlightAccounting:
    def test_flight_angle_integrates_pitch_rate(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        env.z[0] = 3.0
        env.om[0] = -1.5
        env.airborne[0] = True
        res = env.step(np.zeros((1, 4)))
        # no torques in flight: angle = omega * dt over the control step
        assert res.flight_traversed_angle[0] == pytest.approx(
            -1.5 * params.control_dt, rel=1e-9)
        assert not res.landing_event[0]

    def test_landing_event_fires_once(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        env.z[0] = 0.45
        env.airborne[0] = True
        landed = 0
        for _ in range(40):
            res = env.step(np.zeros((1, 4)))
            landed += int(res.landing_event[0])
            if landed and not res.landing_event[0]:
                break
        assert landed >= 1
        # after landing the accumulator is cleared
        assert env.flight_angle[0] == pytest.approx(0.0, abs=1e-6)

    def test_grounded_steps_accumulate_nothing(self):
        env = PlanarEnv(quiet_params(), num_envs=1, seed=0)
        for _ in range(10):
            res = env.step(np.zeros((1, 4)))
        assert res.flight_traversed_angle[0] == 0.0


class TestTimeout:
    def test_timeout_flag(self):
        params = quiet_params(max_episode_time=0.1)
        env = PlanarEnv(params, num_envs=1, seed=0)
        flags = []
        for _ in range(5):
            flags.append(bool(env.step(np.zeros((1, 4))).timeout[0]))
        assert flags == [False, False, False, False, True]


class TestActionEffects:
    def test_leg_extension_launches_body(self):
        # rapidly extending both legs (hip/knee toward zero) pushes off
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        for _ in range(25):  # settle
            env.step(np.zeros((1, 4)))
        extend = np.tile((-NOMINAL_JOINT_POS) / params.action_scale, (1, 1))
        vz_peak = -np.inf
        for _ in range(15):
            env.step(extend)
            vz_peak = max(vz_peak, float(env.vz[0]))
        assert vz_peak > 0.3

    def test_action_clipping_to_joint_limits(self):
        params = quiet_params()
        env = PlanarEnv(params, num_envs=1, seed=0)
        env.z[0] = 3.0  # in flight: joints track freely
        huge = np.full((1, 4), 100.0)
        for _ in range(50):
            env.step(huge)
        assert np.all(env.q[0] <= np.asarray(params.joint_limits_high) + 1e-12)

    def test_torque_proxy_is_finite_and_nonzero_on_ground(self):
        env = PlanarEnv(quiet_params(), num_envs=1, seed=0)
        res = env.step(np.full((1, 4), 0.2))
        assert np.all(np.isfinite(res.joint_torques))
        assert np.any(res.joint_torques != 0.0)


class TestRoughDemos:
    def test_frame_counts(self):
        params = SimParams()
        rng = np.random.default_rng(0)
        for motion in MOTIONS:
            demo = generate_rough_demo(motion, params, rng)
            assert demo.shape == (DEMO_FRAMES[motion], 6)
        assert DEMO_FRAMES == {"leap": 130, "wave": 130, "standup": 100,
                               "backflip": 60}

    def test_backflip_noise_free_full_rotation(self):
        params = SimParams()
        demo = generate_rough_demo("backflip", params,
                                   np.random.default_rng(0), noise_scale=0.0)
        net_rotation = np.trapezoid(demo[:, 2], dx=params.control_dt)
        assert net_rotation == pytest.approx(-2 * math.pi, abs=1e-6)

    def test_demo_set_size(self):
        params = SimParams()
        demos = generate_demo_set("leap", params, np.random.default_rng(3))
        assert len(demos) == 20

    def test_unknown_motion(self):
        with pytest.raises(ValueError, match="unknown motion"):
            generate_rough_demo("cartwheel", SimParams(), np.random.default_rng(0))

    def test_same_seed_identical(self):
        params = SimParams()
        a = generate_demo_set("wave", params, np.random.default_rng(5), 3)
        b = generate_demo_set("wave", params, np.random.default_rng(5), 3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_gravity_columns_unit_norm(self):
        params = SimParams()
        for motion in MOTIONS:
            demo = generate_rough_demo(motion, params, np.random.default_rng(1))
            norms = np.hypot(demo[:, 3], demo[:, 4])
            assert np.allclose(norms, 1.0, atol=1e-12)

    def test_backflip_is_physically_incompatible(self):
        # during the scripted aerial arc the implied vertical acceleration
        # disagrees with free-fall: that certifies "rough" input
        params = SimParams()
        demo = generate_rough_demo("backflip", params,
                                   np.random.default_rng(2), noise_scale=0.0)
        dt = params.control_dt
        pitch = np.arctan2(-demo[:, 3], -demo[:, 4])
        c, s = np.cos(pitch), np.sin(pitch)
        vz_world = s * demo[:, 0] + c * demo[:, 1]
        az = np.gradient(vz_world, dt)
        z = demo[:, 5]
        airborne = z > params.nominal_height() + 0.05
        assert airborne.any()
        mismatch = np.abs(az[airborne] + params.gravity)
        assert mismatch.max() > 2.0

    def test_leap_moves_forward(self):
        params = SimParams()
        demo = generate_rough_demo("leap", params, np.random.default_rng(4))
        assert demo[:, 0].mean() > 0.2   # body-frame forward velocity

    def test_height_offset_knob(self):
        params = SimParams()
        base = generate_rough_demo("wave", params, np.random.default_rng(6),
                                   noise_scale=0.0)
        lifted = generate_rough_demo("wave", params, np.random.default_rng(6),
                                     noise_scale=0.0, height_offset=0.25)
        assert np.allclose(lifted[:, 5] - base[:, 5], 0.25)
        assert np.allclose(lifted[:, :5], base[:, :5])

    def test_time_scale_jitter_varies_duration(self):
        params = SimParams()
        rng = np.random.default_rng(8)
        finals = []
        for _ in range(10):
            demo = generate_rough_demo("standup", params, rng)
            finals.append(np.trapezoid(demo[:, 2], dx=params.control_dt))
        assert np.std(finals) > 0.01  # trajectories differ in reached angle


class TestStateViews:
    def test_state_dict_round_trip(self):
        # an env's part of a checkpoint dict, its STATE_ARRAYS and its rows'
        # generators, is its whole state: another env given it steps the same
        params = SimParams()
        env = PlanarEnv(params, num_envs=3, seed=1)
        env.step(np.random.default_rng(0).normal(size=(3, 4)) * 0.2)
        other = PlanarEnv(params, num_envs=3, seed=999)
        load_env_state(other, env_state(env))
        a = env.step(np.zeros((3, 4)))
        b = other.step(np.zeros((3, 4)))
        assert np.array_equal(env.z, other.z)
        assert np.array_equal(a.joint_torques, b.joint_torques)
        assert_same_state(env_state(other), env_state(env))


def env_state(env) -> dict:
    """Copies of what a checkpoint keeps of ``env``: its ``STATE_ARRAYS``
    and its rows' generator states."""
    return {"arrays": {k: getattr(env, k).copy() for k in STATE_ARRAYS},
            "rng_states": [r.bit_generator.state for r in env.rngs]}


def load_env_state(env, state: dict) -> None:
    """Write ``env_state``'s result over ``env``, as a restore does."""
    for k, v in state["arrays"].items():
        getattr(env, k)[...] = v
    for r, s in zip(env.rngs, state["rng_states"]):
        r.bit_generator.state = s


def assert_same_state(got, expected):
    """Two state dicts (``env_state``'s, say) hold the same keys, the same
    array bytes and dtypes, and the same generator states."""
    assert type(got) is type(expected)
    if isinstance(expected, dict):
        assert list(got) == list(expected)
        for key in expected:
            assert_same_state(got[key], expected[key])
    elif isinstance(expected, np.ndarray):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# Slow oracle: the substep-by-substep step that the phased step replaced,
# kept as it was with ``self`` renamed to ``env``, the input checks dropped
# and the joint limits read from the params. The phased step must match it
# bit for bit.
# ---------------------------------------------------------------------------

def oracle_foot_kinematics(env):
    l1, l2 = env.params.link_lengths
    hip_x = np.array([env.params.half_length, -env.params.half_length])
    q3 = env.q.reshape(-1, 2, 2)
    qd3 = env.qd.reshape(-1, 2, 2)
    th1 = q3[:, :, 0]
    th2 = th1 + q3[:, :, 1]
    s1, c1 = np.sin(th1), np.cos(th1)
    s2, c2 = np.sin(th2), np.cos(th2)
    fxb = hip_x + l1 * s1 + l2 * s2
    fzb = -(l1 * c1 + l2 * c2)
    c = np.cos(env.pitch)[:, None]
    s = np.sin(env.pitch)[:, None]
    rx = c * fxb - s * fzb
    rz = s * fxb + c * fzb
    fz = env.z[:, None] + rz
    j1xb = l1 * c1 + l2 * c2
    j1zb = l1 * s1 + l2 * s2
    j2xb = l2 * c2
    j2zb = l2 * s2
    qd1 = qd3[:, :, 0]
    qd2 = qd3[:, :, 1]
    dfxb = j1xb * qd1 + j2xb * qd2
    dfzb = j1zb * qd1 + j2zb * qd2
    om_col = env.om[:, None]
    vfx = env.vx[:, None] - om_col * rz + (c * dfxb - s * dfzb)
    vfz = env.vz[:, None] + om_col * rx + (s * dfxb + c * dfzb)
    return c, s, rx, rz, fz, vfx, vfz, (j1xb, j1zb, j2xb, j2zb)


def oracle_step(env, actions):
    p = env.params
    a = np.asarray(actions, dtype=np.float64)
    lo = np.asarray(p.joint_limits_low, dtype=np.float64)
    hi = np.asarray(p.joint_limits_high, dtype=np.float64)
    q_target = np.minimum(np.maximum(NOMINAL_JOINT_POS + p.action_scale * a,
                                     lo), hi)

    dt = p.dt_physics
    inv_mass = 1.0 / env.mass
    torque_accum = np.zeros((env.num_envs, 4))
    landing = np.zeros(env.num_envs, dtype=bool)
    landing_angle = np.zeros(env.num_envs)

    for _ in range(p.control_decimation):
        qd_cmd = p.tracking_rate * (q_target - env.q)
        np.clip(qd_cmd, -p.max_joint_vel, p.max_joint_vel, out=qd_cmd)
        q_new = np.minimum(np.maximum(env.q + qd_cmd * dt, lo), hi)
        env.qd = (q_new - env.q) / dt
        env.q = q_new

        c, s, rx, rz, fz, vfx, vfz, (j1xb, j1zb, j2xb, j2zb) = \
            oracle_foot_kinematics(env)

        active = fz < 0.0
        fn = np.where(active,
                      np.maximum(0.0, -p.contact_stiffness * fz
                                 - p.contact_damping * vfz), 0.0)
        cap = p.friction * fn
        ft = np.where(active,
                      np.minimum(np.maximum(-p.tangential_damping * vfx,
                                            -cap), cap), 0.0)

        torque = (rx * fn - rz * ft).sum(axis=1)
        ax = ft.sum(axis=1) * inv_mass
        az = fn.sum(axis=1) * inv_mass - p.gravity
        alpha = torque / p.body_inertia

        env.vx += ax * dt
        env.vz += az * dt
        env.om += alpha * dt
        env.x += env.vx * dt
        env.z += env.vz * dt
        env.pitch += env.om * dt

        tau = p.kp * (q_target - env.q) - p.kd * env.qd
        tau3 = tau.reshape(-1, 2, 2)
        tau3[:, :, 0] += (c * j1xb - s * j1zb) * ft + (s * j1xb + c * j1zb) * fn
        tau3[:, :, 1] += (c * j2xb - s * j2zb) * ft + (s * j2xb + c * j2zb) * fn
        torque_accum += tau

        feet_air = ~active.any(axis=1)
        body_air = ~check_termination_arrays(env.z, np.cos(env.pitch),
                                             np.sin(env.pitch), p)
        in_flight = feet_air & body_air
        touched_down = env.airborne & ~feet_air
        if touched_down.any():
            landing |= touched_down
            landing_angle = np.where(touched_down, env.flight_angle, landing_angle)
            env.flight_angle[touched_down] = 0.0
        env.flight_angle[in_flight] += env.om[in_flight] * dt
        env.airborne = in_flight

    env.time += p.control_dt
    env.steps += 1
    terminal = check_termination_arrays(env.z, np.cos(env.pitch),
                                        np.sin(env.pitch), p)
    env.terminal = terminal.copy()
    timeout = env.time >= p.max_episode_time - 1e-12

    angle_report = np.where(landing, landing_angle, env.flight_angle)
    return StepBatch(
        foot_contacts=oracle_foot_kinematics(env)[4] < 0.0,
        joint_torques=torque_accum / p.control_decimation,
        landing_event=landing,
        flight_traversed_angle=angle_report,
        terminal=terminal,
        timeout=timeout,
    )


ORACLE_STATE = ("x", "z", "pitch", "vx", "vz", "om", "q", "qd", "flight_angle",
                "airborne", "time")


def assert_same_bits(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, label
    assert a.tobytes() == b.tobytes(), label


def run_against_oracle(params, num_envs, steps, scale, seed=0):
    """Step a phased env and an oracle env with the same random actions,
    resetting rows that end; returns (landings, terminations) seen."""
    fast = PlanarEnv(params, num_envs=num_envs, seed=seed)
    slow = PlanarEnv(params, num_envs=num_envs, seed=seed)
    rng = np.random.default_rng(seed)
    landings = terminations = 0
    for t in range(steps):
        actions = scale * rng.standard_normal((num_envs, 4))
        got = fast.step(actions)
        want = oracle_step(slow, actions)
        # foot_contacts among them, against the oracle's end-of-step feet
        for name in StepBatch.__dataclass_fields__:
            assert_same_bits(getattr(got, name), getattr(want, name), (t, name))
        for name in ORACLE_STATE:
            assert_same_bits(getattr(fast, name), getattr(slow, name), (t, name))
        landings += int(want.landing_event.sum())
        terminations += int(want.terminal.sum())
        done = want.terminal | want.timeout
        if done.any():
            fast.reset_rows(done)
            slow.reset_rows(done)
    return landings, terminations


class TestStepMatchesOracle:
    @pytest.mark.parametrize("scale", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("num_envs, steps", [(1, 1000), (2, 1000), (16, 1000),
                                                 (256, 200)])
    def test_bit_identical(self, num_envs, steps, scale):
        landings, terminations = run_against_oracle(SimParams(), num_envs, steps,
                                                    scale)
        assert landings > 0
        assert terminations > 0

    def test_bit_identical_with_mass_perturbation(self):
        params = SimParams(mass_perturb_low=-0.5, mass_perturb_high=1.0)
        landings, terminations = run_against_oracle(params, 16, 300, 1.5, seed=3)
        assert landings > 0
        assert terminations > 0

    def test_foot_heights_match_oracle(self):
        # the step's end-of-step foot heights, seen through its contacts,
        # against the oracle kinematics of the state it ends in
        env = PlanarEnv(SimParams(), num_envs=5, seed=2)
        rng = np.random.default_rng(0)
        contacts = 0
        for t in range(40):
            result = env.step(rng.normal(size=(5, 4)))
            assert_same_bits(result.foot_contacts,
                             oracle_foot_kinematics(env)[4] < 0.0, (t, "contacts"))
            contacts += int(result.foot_contacts.sum())
            env.reset_rows(result.terminal | result.timeout)
        assert 0 < contacts < 40 * 5 * 2


class UfuncProbe:
    """Stands in for numpy in the sim module and records, for every ufunc
    call, whether it can take numpy's fast path: every array operand has
    the output's shape and is C-contiguous, or is 0-d, and no operand needs
    a cast. A broadcast, a strided view or a mixed dtype sends a call
    through numpy's general iterator, which costs a small call about twice
    as much."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc):
            return attr

        def call(*args, **kwargs):
            result = attr(*args, **kwargs)
            outs = args[attr.nin:] or (kwargs["out"],)
            out = outs[0][0] if isinstance(outs[0], tuple) else outs[0]
            self.calls.append((name, self.fast(attr, args[:attr.nin], out)))
            return result
        return call

    @staticmethod
    def fast(ufunc, inputs, out):
        arrays = [x for x in inputs if np.ndim(x) > 0]
        if not arrays or not out.flags.c_contiguous:
            return False
        dtype = arrays[0].dtype
        loop = ufunc.resolve_dtypes((dtype,) * ufunc.nin + (None,) * ufunc.nout)
        return out.dtype == loop[ufunc.nin] and all(
            x.shape == out.shape and x.dtype == dtype and x.flags.c_contiguous
            for x in arrays)


class TestContactLoopFastPath:
    @staticmethod
    def loop_calls(monkeypatch, substeps, num_envs):
        # the calls of one contact phase, at two substep counts: the
        # difference is what the loop runs per substep
        params = SimParams(dt_physics=0.02 / substeps, control_decimation=substeps)
        env = PlanarEnv(params, num_envs=num_envs, seed=1)
        env.step(np.zeros((num_envs, 4)))
        probe = UfuncProbe()
        monkeypatch.setattr(sim_module, "np", probe)
        env._integrate_body(env._buffers)
        monkeypatch.setattr(sim_module, "np", np)
        return probe.calls

    @pytest.mark.parametrize("num_envs", [1, 16])
    def test_every_call_takes_the_fast_path(self, monkeypatch, num_envs):
        long = self.loop_calls(monkeypatch, 20, num_envs)
        short = self.loop_calls(monkeypatch, 10, num_envs)
        per_substep = (len(long) - len(short)) / 10
        assert per_substep == int(per_substep) and per_substep > 20
        # the loop's calls are the last ones of the phase
        assert all(fast for _, fast in long[-20 * int(per_substep):])

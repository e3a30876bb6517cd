import math

import numpy as np
import pytest

from planarmimic.core import SimState
from planarmimic.sim import (DEMO_FRAMES, MOTIONS, NOMINAL_JOINT_POS, PlanarEnv,
                             SimParams, check_termination, generate_demo_set,
                             generate_rough_demo, simulate_step)


def quiet_params(**kwargs):
    defaults = dict(reset_noise_joint=0.0, reset_noise_height=0.0)
    defaults.update(kwargs)
    return SimParams(**defaults)


def make_state(**kwargs):
    defaults = dict(base_x=0.0, base_z=0.3, pitch=0.0, base_vx=0.0,
                    base_vz=0.0, pitch_rate=0.0,
                    joint_pos=NOMINAL_JOINT_POS.copy(), joint_vel=np.zeros(4))
    defaults.update(kwargs)
    return SimState(**defaults)


class TestReset:
    def test_noise_free_reset_is_nominal(self):
        env = PlanarEnv(quiet_params(), num_envs=1, seed=0)
        s = env.get_state(0)
        assert s.base_z == pytest.approx(quiet_params().nominal_height())
        assert np.array_equal(s.joint_pos, NOMINAL_JOINT_POS)
        assert s.base_vx == s.base_vz == s.pitch_rate == 0.0
        # feet exactly on the ground at the nominal pose
        assert np.allclose(env._foot_kinematics()[4], 0.0, atol=1e-12)

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
        fz = env._foot_kinematics()[4]
        assert np.all(fz > -5e-3)


class TestTermination:
    def test_upright_high_is_fine(self):
        assert not check_termination(make_state(base_z=0.3), quiet_params())

    def test_touching_ground(self):
        assert check_termination(make_state(base_z=0.0), quiet_params())

    def test_rotated_corner_below_ground(self):
        # rotated-rectangle oracle: corner offsets under a 90 degree pitch
        params = quiet_params()
        state = make_state(base_z=0.12, pitch=math.pi / 2)
        corners = []
        for cx in (-params.half_length, params.half_length):
            for cz in (-params.half_height, params.half_height):
                c, s = math.cos(state.pitch), math.sin(state.pitch)
                corners.append(state.base_z + s * cx + c * cz)
        assert min(corners) <= 0.0
        assert check_termination(state, params)

    def test_boundary_height_upright(self):
        params = quiet_params()
        assert check_termination(make_state(base_z=params.half_height), params)
        assert not check_termination(make_state(base_z=params.half_height + 1e-6),
                                     params)

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
        params = quiet_params()
        state = make_state()
        action = np.array([0.2, -0.1, 0.05, 0.3])
        s1, r1 = simulate_step(state, action, params)
        s2, r2 = simulate_step(state, action, params)
        assert s1.base_z == s2.base_z
        assert s1.base_vx == s2.base_vx
        assert np.array_equal(s1.joint_pos, s2.joint_pos)
        assert np.array_equal(r1.joint_torques, r2.joint_torques)

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
                        single.reset_all()
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
        params = SimParams()
        env = PlanarEnv(params, num_envs=3, seed=1)
        env.step(np.random.default_rng(0).normal(size=(3, 4)) * 0.2)
        saved = env.state_dict()
        other = PlanarEnv(params, num_envs=3, seed=999)
        other.load_state_dict(saved)
        a = env.step(np.zeros((3, 4)))
        b = other.step(np.zeros((3, 4)))
        assert np.array_equal(env.z, other.z)
        assert np.array_equal(a.joint_torques, b.joint_torques)

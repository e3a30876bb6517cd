"""Planar legged-robot environment and the rough demonstration generator.

The robot is a rigid body (a rectangle in the x-z plane) with two massless
2-joint legs. Joint positions follow commanded targets through a first-order
tracking law; foot contact is a one-sided spring-damper with Coulomb-capped
tangential friction, and the resulting forces act on the body. Because the
legs carry no mass, a joint-torque proxy (PD effort plus Jacobian-transpose
contact load) stands in for actuator torque in the regularization penalties.

Everything is batched over environments; a batch of one gives the scalar
semantics used in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OBS_DIM, SimState, phi_extract_arrays

MOTIONS = ("leap", "wave", "standup", "backflip")
DEMO_FRAMES = {"leap": 130, "wave": 130, "standup": 100, "backflip": 60}
DEMO_TRAJECTORIES = 20

# Standing pose: thigh pitched forward, knee folded back, foot directly under
# the hip. Front leg is index 0 (hip at +x), rear leg index 1.
NOMINAL_JOINT_POS = np.array([0.5, -1.0, 0.5, -1.0])


@dataclass
class SimParams:
    body_mass: float = 2.5
    body_inertia: float = 0.035
    half_length: float = 0.2
    half_height: float = 0.05
    link_lengths: tuple = (0.16, 0.16)
    joint_limits_low: tuple = (-1.3, -2.2, -1.3, -2.2)
    joint_limits_high: tuple = (1.3, 2.2, 1.3, 2.2)
    kp: float = 5.0
    kd: float = 0.1
    tracking_rate: float = 20.0      # 1/s, first-order joint target tracking
    max_joint_vel: float = 12.0
    contact_stiffness: float = 6000.0
    contact_damping: float = 80.0
    friction: float = 0.8
    tangential_damping: float = 80.0
    gravity: float = 9.81
    dt_physics: float = 1e-3
    control_decimation: int = 20
    action_scale: float = 0.5
    reset_noise_joint: float = 0.05
    reset_noise_height: float = 0.01
    mass_perturb_low: float = 0.0    # set to (-0.5, 1.0) to enable the
    mass_perturb_high: float = 0.0   # per-episode base-mass perturbation
    max_episode_time: float = 20.0

    @property
    def control_dt(self) -> float:
        return self.dt_physics * self.control_decimation

    def nominal_height(self) -> float:
        l1, l2 = self.link_lengths
        return l1 * math.cos(NOMINAL_JOINT_POS[0]) + l2 * math.cos(
            NOMINAL_JOINT_POS[0] + NOMINAL_JOINT_POS[1])

    def validate(self) -> list:
        errors = []
        if self.dt_physics <= 0:
            errors.append("sim.dt_physics must be > 0")
        if self.control_decimation < 1:
            errors.append("sim.control_decimation must be >= 1")
        if abs(self.control_dt - 0.02) > 1e-9:
            errors.append("sim.dt_physics * sim.control_decimation must equal 0.02 s "
                          f"(policy runs at 50 Hz), got {self.control_dt}")
        if self.body_mass <= 0 or self.body_inertia <= 0:
            errors.append("sim.body_mass and sim.body_inertia must be > 0")
        if any(h <= l for l, h in zip(self.joint_limits_low, self.joint_limits_high)):
            errors.append("sim.joint_limits_high must exceed joint_limits_low")
        if self.max_episode_time <= 0:
            errors.append("sim.max_episode_time must be > 0")
        return errors


@dataclass
class StepBatch:
    """Outcome of one control step for every environment."""

    base_contact: np.ndarray          # (E,) bool, body polygon touched ground
    foot_contacts: np.ndarray         # (E, 2) bool at end of step
    joint_torques: np.ndarray         # (E, 4) substep-averaged torque proxy
    landing_event: np.ndarray         # (E,) bool, air -> ground this step
    flight_traversed_angle: np.ndarray  # (E,) rad, signed pitch integral in flight
    terminal: np.ndarray              # (E,) bool (== base_contact)
    timeout: np.ndarray               # (E,) bool, episode clock expired


def check_termination_arrays(base_x, base_z, pitch, params: SimParams):
    """True where any corner of the body rectangle is at or below the ground."""
    c = np.cos(pitch)
    s = np.sin(pitch)
    # lowest corner height: z - (|s| * half_length + |c| * half_height)
    lowest = base_z - (np.abs(s) * params.half_length
                       + np.abs(c) * params.half_height)
    return lowest <= 0.0


def check_termination(state: SimState, params: SimParams) -> bool:
    return bool(check_termination_arrays(
        np.array([state.base_x]), np.array([state.base_z]),
        np.array([state.pitch]), params)[0])


class PlanarEnv:
    """Vectorized planar robot environment.

    Each environment owns its own random generator so resets (and therefore
    whole rollouts) are reproducible regardless of how many environments run
    or in what order they are processed. An int ``seed`` seeds row ``i`` with
    ``SeedSequence([seed, i])``; a sequence of ``num_envs`` ints seeds row
    ``i`` with ``SeedSequence([seed[i], 0])``, the generator of a one-env
    environment built with ``seed[i]``, so each row replays that environment.
    """

    def __init__(self, params: SimParams, num_envs: int = 1,
                 seed: int | list[int] = 0):
        self.params = params
        self.num_envs = num_envs
        self.seed = seed
        if isinstance(seed, (int, np.integer)):
            entropy = [[seed, i] for i in range(num_envs)]
        else:
            if len(seed) != num_envs:
                raise ValueError(f"got {len(seed)} seeds for {num_envs} envs")
            entropy = [[s, 0] for s in seed]
        self.rngs = [np.random.default_rng(np.random.SeedSequence(e))
                     for e in entropy]
        self._lo = np.asarray(params.joint_limits_low, dtype=np.float64)
        self._hi = np.asarray(params.joint_limits_high, dtype=np.float64)
        self._hip_x = np.array([params.half_length, -params.half_length])
        E = num_envs
        self.x = np.zeros(E)
        self.z = np.zeros(E)
        self.pitch = np.zeros(E)
        self.vx = np.zeros(E)
        self.vz = np.zeros(E)
        self.om = np.zeros(E)
        self.q = np.zeros((E, 4))
        self.qd = np.zeros((E, 4))
        self.time = np.zeros(E)
        self.steps = np.zeros(E, dtype=np.int64)
        self.mass = np.full(E, params.body_mass)
        self.terminal = np.zeros(E, dtype=bool)
        self.flight_angle = np.zeros(E)
        self.airborne = np.zeros(E, dtype=bool)
        self.reset_all()

    # -- resets ---------------------------------------------------------------

    def reset_all(self) -> None:
        self.reset_rows(np.ones(self.num_envs, dtype=bool))

    def reset_rows(self, mask: np.ndarray) -> None:
        p = self.params
        z0 = p.nominal_height()
        for i in np.nonzero(mask)[0]:
            rng = self.rngs[i]
            if p.reset_noise_joint > 0:
                jn = rng.uniform(-p.reset_noise_joint, p.reset_noise_joint, size=4)
            else:
                jn = np.zeros(4)
            if p.reset_noise_height > 0:
                hn = rng.uniform(-p.reset_noise_height, p.reset_noise_height)
            else:
                hn = 0.0
            if p.mass_perturb_high > p.mass_perturb_low:
                dm = rng.uniform(p.mass_perturb_low, p.mass_perturb_high)
            elif p.mass_perturb_low != 0.0 or p.mass_perturb_high != 0.0:
                dm = p.mass_perturb_low
            else:
                dm = 0.0
            self.x[i] = 0.0
            self.z[i] = z0 + hn
            self.pitch[i] = 0.0
            self.vx[i] = 0.0
            self.vz[i] = 0.0
            self.om[i] = 0.0
            self.q[i] = np.clip(NOMINAL_JOINT_POS + jn,
                                p.joint_limits_low, p.joint_limits_high)
            self.qd[i] = 0.0
            self.time[i] = 0.0
            self.steps[i] = 0
            self.mass[i] = p.body_mass + dm
            self.terminal[i] = False
            self.flight_angle[i] = 0.0
            self.airborne[i] = False

    # -- kinematics -------------------------------------------------------------

    def _foot_kinematics(self):
        """Foot kinematics of every env, joints viewed as (E, leg, joint).

        Returns (c, s, rx, rz, fz, vfx, vfz, jac): c and s are the (E, 1)
        cosine and sine of pitch, r the world-frame foot offset from the COM,
        fz the world foot height, vf the world foot velocity, and jac the
        body-frame Jacobian columns (j1x, j1z, j2x, j2z) of hip and knee,
        each (E, 2 legs); the step reuses c, s and jac for its torque proxy.
        """
        l1, l2 = self.params.link_lengths
        q3 = self.q.reshape(-1, 2, 2)
        qd3 = self.qd.reshape(-1, 2, 2)
        th1 = q3[:, :, 0]
        th2 = th1 + q3[:, :, 1]
        s1, c1 = np.sin(th1), np.cos(th1)
        s2, c2 = np.sin(th2), np.cos(th2)
        fxb = self._hip_x + l1 * s1 + l2 * s2
        fzb = -(l1 * c1 + l2 * c2)
        c = np.cos(self.pitch)[:, None]
        s = np.sin(self.pitch)[:, None]
        rx = c * fxb - s * fzb
        rz = s * fxb + c * fzb
        fz = self.z[:, None] + rz
        j1xb = l1 * c1 + l2 * c2
        j1zb = l1 * s1 + l2 * s2
        j2xb = l2 * c2
        j2zb = l2 * s2
        qd1 = qd3[:, :, 0]
        qd2 = qd3[:, :, 1]
        dfxb = j1xb * qd1 + j2xb * qd2
        dfzb = j1zb * qd1 + j2zb * qd2
        om_col = self.om[:, None]
        vfx = self.vx[:, None] - om_col * rz + (c * dfxb - s * dfzb)
        vfz = self.vz[:, None] + om_col * rx + (s * dfxb + c * dfzb)
        return c, s, rx, rz, fz, vfx, vfz, (j1xb, j1zb, j2xb, j2zb)

    def foot_contacts(self) -> np.ndarray:
        return self._foot_kinematics()[4] < 0.0

    # -- stepping ---------------------------------------------------------------

    def step(self, actions: np.ndarray) -> StepBatch:
        """Advance every environment by one control period (decimated physics
        substeps). ``actions`` are joint-target offsets from the nominal pose,
        scaled by ``action_scale`` and clipped to the joint limits."""
        p = self.params
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != (self.num_envs, 4):
            raise ValueError(f"actions must have shape ({self.num_envs}, 4)")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite action")
        lo, hi = self._lo, self._hi
        q_target = np.minimum(np.maximum(NOMINAL_JOINT_POS + p.action_scale * a,
                                         lo), hi)

        dt = p.dt_physics
        inv_mass = 1.0 / self.mass
        torque_accum = np.zeros((self.num_envs, 4))
        landing = np.zeros(self.num_envs, dtype=bool)
        landing_angle = np.zeros(self.num_envs)

        for _ in range(p.control_decimation):
            # joint tracking (first-order, velocity-limited)
            qd_cmd = p.tracking_rate * (q_target - self.q)
            np.clip(qd_cmd, -p.max_joint_vel, p.max_joint_vel, out=qd_cmd)
            q_new = np.minimum(np.maximum(self.q + qd_cmd * dt, lo), hi)
            self.qd = (q_new - self.q) / dt
            self.q = q_new

            c, s, rx, rz, fz, vfx, vfz, (j1xb, j1zb, j2xb, j2zb) = \
                self._foot_kinematics()

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

            self.vx += ax * dt
            self.vz += az * dt
            self.om += alpha * dt
            self.x += self.vx * dt
            self.z += self.vz * dt
            self.pitch += self.om * dt

            # torque proxy: PD effort plus Jacobian-transpose contact load
            tau = p.kp * (q_target - self.q) - p.kd * self.qd
            tau3 = tau.reshape(-1, 2, 2)
            tau3[:, :, 0] += (c * j1xb - s * j1zb) * ft + (s * j1xb + c * j1zb) * fn
            tau3[:, :, 1] += (c * j2xb - s * j2zb) * ft + (s * j2xb + c * j2zb) * fn
            torque_accum += tau

            # flight accounting: both feet off the ground and body clear
            feet_air = ~active.any(axis=1)
            body_air = ~check_termination_arrays(self.x, self.z, self.pitch, p)
            in_flight = feet_air & body_air
            touched_down = self.airborne & ~feet_air
            if touched_down.any():
                landing |= touched_down
                landing_angle = np.where(touched_down, self.flight_angle, landing_angle)
                self.flight_angle[touched_down] = 0.0
            self.flight_angle[in_flight] += self.om[in_flight] * dt
            self.airborne = in_flight

        self.time += p.control_dt
        self.steps += 1
        base_contact = check_termination_arrays(self.x, self.z, self.pitch, p)
        self.terminal = base_contact.copy()
        timeout = self.time >= p.max_episode_time - 1e-12

        angle_report = np.where(landing, landing_angle, self.flight_angle)
        return StepBatch(
            base_contact=base_contact,
            foot_contacts=self.foot_contacts(),
            joint_torques=torque_accum / p.control_decimation,
            landing_event=landing,
            flight_traversed_angle=angle_report,
            terminal=base_contact.copy(),
            timeout=timeout,
        )

    # -- views ------------------------------------------------------------------

    def observation_features(self) -> np.ndarray:
        """Base-only observation features for every env, (E, 6)."""
        return phi_extract_arrays(self.vx, self.vz, self.pitch, self.om, self.z)

    def get_state(self, i: int = 0) -> SimState:
        return SimState(
            base_x=float(self.x[i]), base_z=float(self.z[i]),
            pitch=float(self.pitch[i]), base_vx=float(self.vx[i]),
            base_vz=float(self.vz[i]), pitch_rate=float(self.om[i]),
            joint_pos=self.q[i].copy(), joint_vel=self.qd[i].copy(),
            time=float(self.time[i]), terminal=bool(self.terminal[i]))

    def set_state(self, state: SimState, i: int = 0) -> None:
        self.x[i] = state.base_x
        self.z[i] = state.base_z
        self.pitch[i] = state.pitch
        self.vx[i] = state.base_vx
        self.vz[i] = state.base_vz
        self.om[i] = state.pitch_rate
        self.q[i] = state.joint_pos
        self.qd[i] = state.joint_vel
        self.time[i] = state.time
        self.terminal[i] = state.terminal

    def state_dict(self) -> dict:
        return {
            "arrays": {k: getattr(self, k).tolist()
                       for k in ("x", "z", "pitch", "vx", "vz", "om", "q", "qd",
                                 "time", "mass", "flight_angle")},
            "steps": self.steps.tolist(),
            "terminal": self.terminal.tolist(),
            "airborne": self.airborne.tolist(),
            "rng_states": [r.bit_generator.state for r in self.rngs],
        }

    def load_state_dict(self, d: dict) -> None:
        for k, v in d["arrays"].items():
            getattr(self, k)[...] = np.array(v, dtype=np.float64)
        self.steps[...] = np.array(d["steps"], dtype=np.int64)
        self.terminal[...] = np.array(d["terminal"], dtype=bool)
        self.airborne[...] = np.array(d["airborne"], dtype=bool)
        for r, s in zip(self.rngs, d["rng_states"]):
            r.bit_generator.state = s


def simulate_step(state: SimState, action: np.ndarray, params: SimParams):
    """Functional single-environment step: (state, action) -> (state', StepBatch).

    Pure in (state, action, params): reset noise never enters this path.
    """
    env = PlanarEnv(params, num_envs=1, seed=0)
    env.set_state(state, 0)
    feet_air = not env.foot_contacts()[0].any()
    env.airborne[0] = feet_air and not check_termination(state, params)
    result = env.step(np.asarray(action, dtype=np.float64).reshape(1, 4))
    return env.get_state(0), result


# ---------------------------------------------------------------------------
# Rough demonstration scripts
# ---------------------------------------------------------------------------

def _smoothstep(p: np.ndarray) -> np.ndarray:
    """Monotone 0->1 ramp with zero slope at both ends."""
    return p - np.sin(2.0 * math.pi * p) / (2.0 * math.pi)


def _smooth_noise(n: int, rng: np.random.Generator, amp: float,
                  n_waves: int = 4) -> np.ndarray:
    """Band-limited noise: a few random low-frequency sinusoids."""
    u = np.linspace(0.0, 1.0, n)
    out = np.zeros(n)
    for _ in range(n_waves):
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out += rng.normal(0.0, amp / math.sqrt(n_waves)) * np.sin(
            2.0 * math.pi * freq * u + phase)
    return out


def _finite_difference(series: np.ndarray, dt: float) -> np.ndarray:
    """Central differences with one-sided ends. The one-sided ends make the
    trapezoidal integral of the result telescope to the endpoint difference."""
    d = np.empty_like(series)
    d[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    d[0] = (series[1] - series[0]) / dt
    d[-1] = (series[-1] - series[-2]) / dt
    return d


def _script_curves(motion: str, t: np.ndarray, duration: float, z0: float):
    """Nominal (x, z, pitch) curves for each scripted motion, evaluated at
    (possibly time-warped) times ``t`` against the nominal ``duration``."""
    u = np.clip(t / duration, 0.0, 1.0)
    if motion == "backflip":
        x = np.zeros_like(t)
        z = z0 + 0.30 * np.sin(math.pi * u) ** 2
        pitch = -2.0 * math.pi * _smoothstep(u)
    elif motion == "leap":
        period = 0.52
        phase = (t / period) % 1.0
        x = 0.5 * t
        z = z0 + 0.12 * np.sin(math.pi * phase) ** 2
        pitch = 0.08 * np.sin(2.0 * math.pi * t / period)
    elif motion == "wave":
        x = np.zeros_like(t)
        z = z0 + 0.06 * np.sin(2.0 * math.pi * 1.25 * t)
        pitch = 0.05 * np.sin(2.0 * math.pi * 1.25 * t + 0.7)
    elif motion == "standup":
        p = _smoothstep(u)
        x = np.zeros_like(t)
        z = z0 + 0.14 * p
        pitch = 0.5 * math.pi * p
    else:
        raise ValueError(f"unknown motion {motion!r}, expected one of {MOTIONS}")
    return x, z, pitch


def generate_rough_demo(motion: str, params: SimParams, rng: np.random.Generator,
                        noise_scale: float = 1.0,
                        height_offset: float = 0.0) -> np.ndarray:
    """One scripted base-only trajectory, shape (frames, 6).

    The script is kinematic: positions and attitude are drawn, jittered with
    smooth noise and a +-15% per-trajectory time scale, and velocities come
    from finite differences. Nothing obeys the robot's dynamics, which is the
    point: these stand in for hand-carried demonstrations.
    """
    if motion not in MOTIONS:
        raise ValueError(f"unknown motion {motion!r}, expected one of {MOTIONS}")
    frames = DEMO_FRAMES[motion]
    dt = params.control_dt
    t = np.arange(frames) * dt
    z0 = params.nominal_height()

    if noise_scale > 0:
        scale = rng.uniform(0.85, 1.15)
    else:
        scale = 1.0
    duration = float(t[-1]) if frames > 1 else 1.0
    x, z, pitch = _script_curves(motion, t * scale, duration, z0)

    if noise_scale > 0:
        x = x + noise_scale * _smooth_noise(frames, rng, 0.02)
        z = z + noise_scale * _smooth_noise(frames, rng, 0.02)
        pitch = pitch + noise_scale * _smooth_noise(frames, rng, 0.05)

    vx_w = _finite_difference(x, dt)
    vz_w = _finite_difference(z, dt)
    pitch_rate = _finite_difference(pitch, dt)

    return phi_extract_arrays(vx_w, vz_w, pitch, pitch_rate, z + height_offset)


def generate_demo_set(motion: str, params: SimParams, rng: np.random.Generator,
                      n_trajectories: int = DEMO_TRAJECTORIES,
                      noise_scale: float = 1.0,
                      height_offset: float = 0.0) -> list:
    return [generate_rough_demo(motion, params, rng, noise_scale, height_offset)
            for _ in range(n_trajectories)]

"""Planar legged-robot environment and the rough demonstration generator.

The robot is a rigid body (a rectangle in the x-z plane) with two massless
2-joint legs. Joint positions follow commanded targets through a first-order
tracking law; foot contact is a one-sided spring-damper with Coulomb-capped
tangential friction, and the resulting forces act on the body. Because the
legs carry no mass, a joint-torque proxy (PD effort plus Jacobian-transpose
contact load) stands in for actuator torque in the regularization penalties.

Everything is batched over environments; a batch of one gives the scalar
semantics used in tests. A control step runs its physics substeps in three
phases split along their data dependencies (see `PlanarEnv.step`): joint
tracking, then body-frame leg kinematics of every substep in one batch, then
the contact-and-body loop that alone must go substep by substep; the
termination check reads the final state only. Each value comes from the same
IEEE operations, in the same order, as in a plain loop over the substeps, so
the result is bit-identical to it.

A step computes only what every caller reads. The torque proxy (read by
training's regularizer), the end-of-step foot contacts (read by eval's
stand-up tally) and the flight and landing bookkeeping (read by eval's
backflip tally) come from three readers, `PlanarEnv.joint_torques`,
`PlanarEnv.foot_contacts` and `PlanarEnv.flight`, which work from the last
step's buffers: a reader holds until the next step, `PlanarEnv.reset_rows`
leaves it as it is, and a reader called before the first step raises. The
flight state that carries from one step to the next is the caller's.

At small E a step's time is numpy's per-call cost: its calls work on arrays of
a few rows of E values. At the default 20 substeps every step makes 692 numpy
calls, whatever the state: 5 per substep in joint tracking, 28 per substep in
the contact-and-body loop, and 32 others (6 in the prologue, 2 for the joint
rates, 14 in leg kinematics, 5 to set up the loop, 5 for termination).
`joint_torques` makes 17. Rows are stacked so that one call serves several
terms (see `PlanarEnv._integrate_body` and `leg_kinematics`).

Every ufunc call of a step and of `joint_torques` keeps to numpy's fast path:
every array operand has the shape of the output and is contiguous, and no
operand needs a cast; other operands are 0-d. A broadcast operand, a strided
view or a mixed dtype sends a call through numpy's general iterator, at
several times the cost of a small call. The buffers are laid out for this
(see `_StepBuffers`): the loops over the substeps lead with the substep, the
batched phases with the component, and one copy per array moves rows between
the two. Tests check every call of each phase and the count of a step's
calls. Only the readers `foot_contacts` and `flight`, which eval alone calls,
read strided or broadcast operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OBS_DIM, phi_extract_arrays

# numpy's clip ufunc: np.clip reaches it through Python wrappers that cost
# several times the clip itself on a step's small arrays
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip

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

    @property
    def episode_steps(self) -> int:
        """Control steps per episode (``validate`` requires a whole number)."""
        return round(self.max_episode_time / self.control_dt)

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
        if not self.gravity > 0:
            errors.append("sim.gravity must be > 0 (its magnitude; it pulls down)")
        if self.contact_stiffness < 1.0:
            errors.append("sim.contact_stiffness must be >= 1 N/m")
        if not 0.0 <= self.tracking_rate * self.dt_physics <= 0.5:
            errors.append("sim.tracking_rate * sim.dt_physics must be in [0, 0.5], so "
                          "a substep moves a joint at most half way to its target")
        if not self.max_joint_vel >= 0.0:
            errors.append("sim.max_joint_vel must be >= 0")
        if self.body_mass <= 0 or self.body_inertia <= 0:
            errors.append("sim.body_mass and sim.body_inertia must be > 0")
        if self.mass_perturb_high < self.mass_perturb_low:
            errors.append("sim.mass_perturb_high must be >= sim.mass_perturb_low")
        if not self.body_mass + self.mass_perturb_low > 0:
            errors.append("sim.body_mass + sim.mass_perturb_low must be > 0")
        if len(self.link_lengths) != 2:
            errors.append("sim.link_lengths must have 2 entries (thigh, shank)")
        if any(not length > 0 for length in self.link_lengths):
            errors.append("sim.link_lengths must be > 0")
        if not (self.half_length > 0 and self.half_height > 0):
            errors.append("sim.half_length and sim.half_height must be > 0")
        if not min(self.friction, self.contact_damping, self.tangential_damping) >= 0:
            errors.append("sim.friction, sim.contact_damping and sim.tangential_damping "
                          "must be >= 0")
        if min(self.reset_noise_joint, self.reset_noise_height) < 0:
            errors.append("sim.reset_noise_joint and sim.reset_noise_height must be >= 0")
        if len(self.joint_limits_low) != 4 or len(self.joint_limits_high) != 4:
            errors.append("sim.joint_limits_low and sim.joint_limits_high must have "
                          "4 entries each, one per joint")
        elif any(h <= l for l, h in zip(self.joint_limits_low, self.joint_limits_high)):
            errors.append("sim.joint_limits_high must exceed joint_limits_low")
        if not 0 < self.max_episode_time < math.inf:
            errors.append("sim.max_episode_time must be > 0 and finite")
        elif self.control_dt > 0 and not math.isclose(
                self.max_episode_time / self.control_dt, self.episode_steps, rel_tol=1e-9):
            errors.append("sim.max_episode_time must be a whole number of control "
                          f"periods ({self.control_dt} s)")
        return errors


@dataclass
class StepBatch:
    """Outcome of one control step for every environment: whether each
    episode ended. The readers `PlanarEnv.joint_torques`,
    `PlanarEnv.foot_contacts` and `PlanarEnv.flight` compute the rest from
    the step's buffers for the callers that read it."""

    terminal: np.ndarray  # (E,) bool, body polygon on the ground at the end
    timeout: np.ndarray   # (E,) bool, episode clock expired


def check_termination_arrays(base_z, trig, params: SimParams):
    """True where any corner of the body rectangle is at or below the ground,
    for bodies at height ``base_z`` whose pitch has the cos and sin stacked
    in ``trig``, (2, ...) as ``base_z`` is (...)."""
    # the lowest corner is at z - reach, with reach = |s| * half_length +
    # |c| * half_height; a rounded difference has the sign of the exact one
    # and is zero only for equal values, so z - reach <= 0 is z <= reach
    c, s = np.abs(trig)
    reach = np.add(np.multiply(s, params.half_length),
                   np.multiply(c, params.half_height))
    return np.less_equal(base_z, reach)


def leg_kinematics(b: "_StepBuffers") -> None:
    """Phase 2: body-frame kinematics of both legs at every substep, from
    the joints ``b.q[1:]`` and rates ``b.qd``, into ``b.jac`` and ``b.kin``.

    - ``b.jac[a, j]``, (K, leg, E): coordinate a (x, z) of the Jacobian
      column of joint j (hip, knee), the one the torque proxy maps contact
      forces by;
    - ``b.kin``, (8, K, leg, E): the foot's offset from the COM and its
      velocity as (u, du, w, dw), then their negations.

    The joints are copied into this component-first layout first, the rates
    once per Jacobian coordinate, so that every call works on whole blocks
    of (K, leg, E) values. One sin and one cos cover every hip and foot-link
    angle. The velocity rows come from one sum of the products ``jac *
    rates``, (J1x Hd, J2x Kd, J1z Hd, J2z Kd) as blocks, with themselves
    shifted by one block: (du, -, dw), the block between written over by w.
    """
    K = b.substeps
    angles, jac, kin = b.angles, b.jac, b.kin
    rates, vel = b.scratch
    add, multiply, negative = np.add, np.multiply, np.negative
    joints = (K, 2, 2, -1)                      # (substep, leg, joint, E)
    np.copyto(angles, b.q[1:].reshape(joints).transpose(2, 0, 1, 3))
    np.copyto(rates, b.qd.reshape(joints).transpose(2, 0, 1, 3))
    add(angles[0], angles[1], angles[1])        # the foot link's angle
    np.cos(angles, jac[0])
    np.sin(angles, jac[1])
    multiply(jac, b.lengths, jac)               # (l c, l s) of each link
    add(b.hip_x, jac[1, 0], kin[_U])
    add(kin[_U], jac[1, 1], kin[_U])
    add(jac[0, 0], jac[0, 1], jac[0, 0])        # the hip moves both links
    add(jac[1, 0], jac[1, 1], jac[1, 0])
    multiply(jac, rates, vel)
    blocks = vel.reshape(4, -1)
    add(blocks[:3], blocks[1:], kin[_DU:_DW + 1].reshape(3, -1))
    negative(jac[0, 0], kin[_W])
    negative(kin[:4], kin[4:])


# Rows of the body state of a substep in `PlanarEnv.step`: the cosine and
# sine of the pitch, then the velocity (om, -, vz, -, vx) and the position
# (pitch, -, z, -, x) in the same order. The rows marked - pad the blocks to
# the shape of the accelerations, whose leg sums leave a row between each
# two (see `_integrate_body`); the integration fills them and nothing reads
# them. So (cos, sin, om) and (vz, -, vx, pitch, -, z) are each one block of
# rows, the two blocks the contact loop copies per leg.
_COS, _SIN, _OM, _VZ, _VX, _PITCH, _Z, _X = 0, 1, 2, 4, 6, 7, 9, 11
_VEL, _POS = slice(_OM, _VX + 1), slice(_PITCH, _X + 1)
# the velocity and position rows without the padding
_VEL_ROWS, _POS_ROWS = slice(_OM, _VX + 1, 2), slice(_PITCH, _X + 1, 2)
# Rows of a contact force: the leg's torque about the COM, normal (z) and
# tangential (x) force.
_LT, _FN, _FT = 0, 1, 2
# The rotation operands of a substep of the contact loop, ``_ROT_C``
# times the cosine plus ``_ROT_S`` times the sine, as rows of
# ``_StepBuffers.legs``: (u, du, w, dw) from `leg_kinematics`, then their
# negations. The rotated rows are rz, rx, rz, -rz, dz, dx, dx, where
# (rx, rz) = (c u - s w, s u + c w) and (dx, dz) likewise from (du, dw).
_U, _DU, _W, _DW = range(4)
_NU, _NW, _NDW = _U + 4, _W + 4, _DW + 4
_ROT_C = (_W, _U, _W, _NW, _DW, _DU, _DU)
_ROT_S = (_U, _NW, _U, _NU, _DU, _NDW, _NDW)
_ROT_ROWS = len(_ROT_C)


def _scalars(*values) -> tuple:
    """0-d float64 arrays of ``values``: a ufunc converts a Python float
    operand anew at every call."""
    return tuple(np.array(v, dtype=np.float64) for v in values)


class _StepBuffers:
    """The arrays `PlanarEnv.step` writes, kept from one step to the next,
    and the step's constants, built once: fresh multi-megabyte arrays every
    step would cost more in page faults than the arithmetic at E >= 256.

    Every ufunc call of the step takes numpy's fast path: each array
    operand has the shape of the call's output and is contiguous, or is
    0-d. The loops over the substeps (joint tracking, contact and body)
    work on one substep's rows, so their arrays lead with the substep
    (K-first). The batched phases (leg kinematics, the torque proxy) work
    on one component over all substeps, so their arrays lead with the
    component (component-first); a broadcasting ``np.copyto`` moves rows
    between the two layouts, and operands that would broadcast are built
    at the output's shape. E is last everywhere.

    In the contact loop, per-leg arrays are (component, leg, E); the
    per-env rows a per-leg call reads are copied per leg first, in two
    blocks (``trig``, ``env``), and the rotation operands are stacked for
    all substeps before the loop (``ops``). The loop rotates seven rows and
    forms the foot's velocity and height in padded blocks (see
    `PlanarEnv._integrate_body`)."""

    def __init__(self, env: "PlanarEnv", substeps: int):
        p = env.params
        K, E = substeps, env.num_envs
        self.substeps = K
        # the prologue: the actions, scaled and clipped in place to the
        # joint limits, are the targets, one row per joint
        self.scale, self.substep_count = _scalars(p.action_scale, K)
        self.nominal, self.lo, self.hi = (
            np.repeat(v[:, None], E, axis=1)
            for v in (NOMINAL_JOINT_POS, env._lo, env._hi))
        self.target = np.empty((4, E))
        # joint tracking, K-first; q leads with the joints before the first
        # substep. ``gap`` is the target minus the joints before each
        # substep, then after the last (written by the torque proxy).
        self.track = _scalars(p.tracking_rate, p.max_joint_vel, -p.max_joint_vel,
                              p.dt_physics)
        self.q = np.empty((K + 1, 4, E))
        self.qd = np.empty((K, 4, E))
        self.gap = np.empty((K + 1, 4, E))
        self.cmd = np.empty((4, E))
        # leg kinematics, component-first: the (hip, foot-link) angles, the
        # Jacobian [a, j] and the foot rows (u, du, w, dw, -u, -du, -w, -dw);
        # two scratch arrays of the Jacobian's shape, shared with the torque
        # proxy
        l1, l2 = p.link_lengths
        self.angles = np.empty((2, K, 2, E))
        self.jac = np.empty((2, 2, K, 2, E))
        self.scratch = np.empty((2,) + self.jac.shape)
        self.lengths = np.empty_like(self.jac)
        self.lengths[:, 0], self.lengths[:, 1] = l1, l2
        self.hip_x = np.empty((K, 2, E))
        self.hip_x[:, 0], self.hip_x[:, 1] = p.half_length, -p.half_length
        self.kin = np.empty((8, K, 2, E))
        # the contact loop, K-first: the foot rows per substep
        self.legs = np.empty((K, 8, 2, E))
        # rows _COS .. _X; the padding rows of the first substep stay zero
        self.state = np.zeros((K + 1, _X + 1, E))
        self.force = np.empty((K, 3, 2, E))       # rows _LT, _FN, _FT per leg
        self.contact = np.empty((K, 2, E))        # 1.0 where the foot is down
        (self.zero, self.inertia, self.gravity, self.dt, self.mu,
         self.neg_mu) = _scalars(0.0, p.body_inertia, p.gravity, p.dt_physics,
                                 p.friction, -p.friction)
        # scratch of one substep of the contact loop: per leg, (cos, sin,
        # om) once per rotated row, (vz, -, vx, pitch, -, z), and the
        # products of (cos, sin) with the rotation operands
        self.trig = np.empty((3, _ROT_ROWS, 2, E))
        self.env = np.empty((6, 2, E))
        self.prod = np.empty((2 * _ROT_ROWS, 2, E))
        self.ops = np.empty((K, 2 * _ROT_ROWS, 2, E))
        self.rot_rows = np.array(_ROT_C + _ROT_S, dtype=np.intp)
        # om times (rx, rz, -rz), two rows that stay zero, then the rotated
        # rows
        self.rot = np.zeros((5 + _ROT_ROWS, 2, E))
        self.foot = np.empty((6, 2, E))           # (vfz, -, vfx, -, -, fz)
        self.gains = np.empty_like(self.foot)
        self.gains[...] = np.array([p.contact_damping, 1.0, -p.tangential_damping,
                                    1.0, 1.0, -p.contact_stiffness])[:, None, None]
        self.gained = np.empty_like(self.foot)
        self.push = np.empty((2, E))
        self.cap = np.empty((2, 2, E))            # (upper, lower) friction bound
        self.moment = np.empty((2, 2, E))
        self.acc = np.empty((5, E))               # (alpha, -, az, -, ax)
        self.inv_mass = np.ones((5, E))           # (1, -, 1/m, -, 1/m)
        # the torque proxy: the effort of each substep and the contact load,
        # K-first as the joints; (cos, sin) of each substep copied to the
        # Jacobian's shape for the load's terms, which are component-first
        self.kp, self.kd = _scalars(p.kp, p.kd)
        self.tau = np.empty((K, 4, E))
        self.load = np.empty_like(self.tau)
        self.trig_jac = np.empty_like(self.jac)
        # the views substep k of each loop reads and writes
        self.track_views = list(zip(self.q[:-1], self.q[1:], self.gap[:-1]))
        state, force = self.state, self.force
        force_rows = force.reshape(K, 6, E)
        self.views = list(zip(
            state[:-1, _COS:_OM + 1, None, None, :], state[:-1, _VZ:_Z + 1, None, :],
            self.ops, self.contact, force[:, _FN:], force[:, _LT], force[:, _FN],
            force[:, _FT], force_rows[:, :5], force_rows[:, 1:],
            state[:-1, _VEL], state[1:, _VEL], state[:-1, _POS], state[1:, _POS],
            state[1:, _PITCH], state[1:, _COS], state[1:, _SIN]))


# the arrays of an env's state, each with a row per env: with the rows'
# generators, what a checkpoint keeps of an env
STATE_ARRAYS = ("x", "z", "pitch", "vx", "vz", "om", "q", "qd", "mass", "steps")


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
        E = num_envs
        self.x = np.zeros(E)
        self.z = np.zeros(E)
        self.pitch = np.zeros(E)
        self.vx = np.zeros(E)
        self.vz = np.zeros(E)
        self.om = np.zeros(E)
        self.q = np.zeros((E, 4))
        self.qd = np.zeros((E, 4))
        self.steps = np.zeros(E, dtype=np.int64)
        self.mass = np.full(E, params.body_mass)
        self._buffers = None
        self.reset_rows(np.ones(E, dtype=bool))

    # -- resets ---------------------------------------------------------------

    def reset_rows(self, mask: np.ndarray) -> None:
        """Start the ``mask`` rows' episodes over. Each row's generator makes
        its draws in the order a reset of that row alone makes them."""
        p = self.params
        rows = np.flatnonzero(mask)
        jn = np.zeros((rows.size, 4))
        hn = np.zeros(rows.size)
        dm = np.full(rows.size, p.mass_perturb_low)
        for k, i in enumerate(rows):
            rng = self.rngs[i]
            if p.reset_noise_joint > 0:
                jn[k] = rng.uniform(-p.reset_noise_joint, p.reset_noise_joint, size=4)
            if p.reset_noise_height > 0:
                hn[k] = rng.uniform(-p.reset_noise_height, p.reset_noise_height)
            if p.mass_perturb_high > p.mass_perturb_low:
                dm[k] = rng.uniform(p.mass_perturb_low, p.mass_perturb_high)
        for a in (self.x, self.pitch, self.vx, self.vz, self.om, self.qd, self.steps):
            a[rows] = 0
        self.z[rows] = p.nominal_height() + hn
        self.q[rows] = np.clip(NOMINAL_JOINT_POS + jn, self._lo, self._hi)
        self.mass[rows] = p.body_mass + dm

    # -- stepping ---------------------------------------------------------------

    def step(self, actions: np.ndarray) -> StepBatch:
        """Advance every environment by one control period (decimated physics
        substeps). ``actions`` are joint-target offsets from the nominal pose,
        scaled by ``action_scale`` and clipped to the joint limits.

        The K = ``control_decimation`` substeps run in three phases, split
        along their data dependencies:

        1. Joint tracking depends only on the joints and their targets, so it
           runs first as its own recurrence, giving every substep's joints.
        2. Body-frame leg kinematics of all K substeps, in one batch.
        3. Contact forces and body integration: the only loop that must run
           substep by substep. The pitch's cos and sin at the end of a
           substep are carried into the next one.

        Then the termination check reads the final state. Every step makes
        the same 692 numpy calls at the default 20 substeps.

        The torque proxy, the end-of-step foot contacts and the flight and
        landing bookkeeping are computed only when read, from this step's
        buffers, by `joint_torques`, `foot_contacts` and `flight`.

        The result is bit-identical to a loop that does all of this substep
        by substep (the tests keep that loop as an oracle). The phases only
        move work between values that do not depend on each other, and each
        value comes from the same IEEE operations in the same order, or from
        an exact identity of them: ``c u - s w`` as ``c u + (-s) w`` or
        ``c u + s (-w)``, ``x - y`` as ``x + (-y)``, a sum of two products
        in either order, a contact mask as a product with 0 or 1, a product
        with 1, a skipped addition as the addition of a zero, a clamp that
        cannot bind as no clamp, ``x - y <= 0`` as ``x <= y``, and numpy's
        clip for a maximum and then a minimum, which differ at most in the
        sign of a zero at a bound of zero. Sums over the two legs are written
        out as ``front + rear``, and the torque proxy is summed over the
        substeps in order: a reduction over the outer axis, never one numpy
        may reassociate.
        """
        p = self.params
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != (self.num_envs, 4):
            raise ValueError(f"actions must have shape ({self.num_envs}, 4)")
        if not np.isfinite(a).all():
            raise ValueError("non-finite action")
        K = p.control_decimation
        if self._buffers is None or self._buffers.substeps != K:
            self._buffers = _StepBuffers(self, K)
        b = self._buffers
        target = b.target
        np.copyto(target, a.T)
        np.multiply(target, b.scale, out=target)
        np.add(b.nominal, target, out=target)
        _clip(target, b.lo, b.hi, target)

        self._track_joints(b, target)
        leg_kinematics(b)
        self._integrate_body(b)

        end = b.state[K]
        self.q[...] = b.q[K].T
        self.qd[...] = b.qd[K - 1].T
        self.pitch[...], self.z[...], self.x[...] = end[_POS_ROWS]
        self.om[...], self.vz[...], self.vx[...] = end[_VEL_ROWS]
        self.steps += 1
        return StepBatch(
            terminal=check_termination_arrays(end[_Z], end[_COS:_SIN + 1], p),
            timeout=self.steps >= p.episode_steps,
        )

    def _track_joints(self, b: "_StepBuffers", q_target: np.ndarray) -> None:
        """Phase 1: first-order, velocity-limited joint tracking of every
        substep into ``b.q`` (K + 1 rows, the first the current joints) and
        ``b.qd`` (K rows). The target minus the joints before each substep
        is kept in ``b.gap``, where the torque proxy reads it.

        A plain loop would clamp each new joint to its limits, as the
        target is. That clamp never binds, so it is left out: the joints
        start inside the limits, the target is clipped to them, and a
        substep moves a joint by at most ``tracking_rate * dt_physics``
        times its distance to the target, which ``SimParams.validate``
        holds in [0, 0.5], toward the target, as a non-negative
        ``max_joint_vel`` keeps the velocity cap around zero. The step is
        then strictly shorter than that distance, so the rounded sum lands
        between the joint and its target, inside the limits, and a clamp
        would return it unchanged.
        """
        rate, vmax, nvmax, dt = b.track
        q, cmd = b.q, b.cmd
        add, subtract, multiply, clip = np.add, np.subtract, np.multiply, _clip
        q[0] = self.q.T
        for cur, nxt, gap in b.track_views:
            subtract(q_target, cur, gap)
            multiply(gap, rate, cmd)
            clip(cmd, nvmax, vmax, cmd)
            multiply(cmd, dt, cmd)
            add(cur, cmd, nxt)
        subtract(q[1:], q[:-1], out=b.qd)
        np.divide(b.qd, dt, out=b.qd)

    def _integrate_body(self, b: "_StepBuffers") -> None:
        """Phase 3: contact forces and semi-implicit Euler integration of the
        body, substep by substep, into ``b.state``, ``b.force`` and
        ``b.contact``.

        Ground contact is a one-sided spring-damper per foot; friction is
        tangential damping capped at ``friction`` times the normal force.
        The foot offset and velocity rotate into the world frame in one
        product of the per-leg (cos, sin) with ``b.ops`` and one sum of its
        halves. ``c u - s w`` is ``c u + s (-w)``, since negation is exact.
        A foot is down where its spring term ``-k fz`` is positive (a float
        mask, ``np.heaviside``): exactly where ``fz < 0``, since a stiffness
        of at least 1 cannot round a nonzero product to zero.

        Rows are stacked so that one call serves several terms; the rows
        marked - are by-products that nothing reads:

        - the rotation gives the rows of ``_ROT_C``: rz, rx, rz, -rz, dz,
          dx, dx, where ``-rz`` is ``c (-w) + s (-u)``;
        - ``om (rx, rz, -rz)`` in one product, and the world foot velocity
          and height ``(vz, -, vx, pitch, -, z) + (om rx, om rz, om (-rz),
          0, 0, rz)`` in one sum, as ``(vfz, -, vfx, -, -, fz)``: ``vx - om
          rz`` is ``vx + om (-rz)``;
        - the leg sums of the torques about the COM and of the normal and
          tangential forces in one sum of the force rows ``(lt_f, lt_r,
          fn_f, fn_r, ft_f, ft_r)`` with themselves shifted by one row,
          which gives the accelerations' rows ``(alpha, -, az, -, ax)``,
          the order of the state's velocity rows;
        - the mass as one product with ``(1, -, 1/m, -, 1/m)`` (a product
          with 1 is exact) before the division by the inertia.

        The calls of the loop take numpy's fast path: each operand has the
        shape of the output and is contiguous, or is 0-d (the tests check
        this). So the ufuncs are bound to names once, and take ``out``
        positionally where numpy allows it.
        """
        state, inv_mass = b.state, b.inv_mass
        state[0, _VEL_ROWS] = (self.om, self.vz, self.vx)
        state[0, _POS_ROWS] = (self.pitch, self.z, self.x)
        np.cos(self.pitch, out=state[0, _COS])
        np.sin(self.pitch, out=state[0, _SIN])
        np.divide(1.0, self.mass, out=inv_mass[2])
        inv_mass[3:] = inv_mass[2]
        zero, inertia, gravity, dt, mu, neg_mu = (
            b.zero, b.inertia, b.gravity, b.dt, b.mu, b.neg_mu)
        np.copyto(b.legs, b.kin.transpose(1, 0, 2, 3))
        np.take(b.legs, b.rot_rows, axis=1, out=b.ops, mode="clip")
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        maximum, minimum, heaviside, cos, sin, copyto = (
            np.maximum, np.minimum, np.heaviside, np.cos, np.sin, np.copyto)
        trig, env, prod, rot, foot, gained, gains = (
            b.trig, b.env, b.prod, b.rot, b.foot, b.gained, b.gains)
        push, cap, moment, acc = b.push, b.cap, b.moment, b.acc
        cs = trig[:2].reshape(2 * _ROT_ROWS, 2, -1)
        prod_c, prod_s = prod[:_ROT_ROWS], prod[_ROT_ROWS:]
        om = trig[2, :3]
        rotated, om_in, om_out = rot[5:], rot[6:9], rot[:3]
        v_term, d_term, r_moment = rot[:6], rot[9:], rot[6:8]
        vf, damp, ft_push, spring = foot[:3], gained[0], gained[2], gained[5]
        cap_hi, cap_lo = cap
        moment_n, moment_t = moment
        alpha, az = acc[0], acc[2]
        for (trig_k, env_k, ops_k, ck, fk, lt, fn, ft, fk_head, fk_tail, vk, vn,
             pk, pn, pitch_n, cos_n, sin_n) in b.views:
            copyto(trig, trig_k)
            copyto(env, env_k)
            multiply(cs, ops_k, prod)
            add(prod_c, prod_s, rotated)            # rz, rx, rz, -rz, dz, dx, dx
            # world foot velocity (vz + om rx, vx - om rz) + (dz, dx) and
            # height z + rz
            multiply(om, om_in, om_out)             # om (rx, rz, -rz)
            add(env, v_term, foot)
            add(vf, d_term, vf)
            multiply(gains, foot, gained)           # damping, friction, spring
            heaviside(spring, zero, ck)             # 1.0 where fz < 0
            subtract(spring, damp, push)
            maximum(zero, push, out=push)
            multiply(push, ck, fn)
            # an airborne foot has a zero cap, so its friction clamps to zero
            multiply(fn, mu, cap_hi)
            multiply(fn, neg_mu, cap_lo)
            maximum(ft_push, cap_lo, out=ft)
            minimum(ft, cap_hi, out=ft)
            multiply(r_moment, fk, moment)          # (rx fn, rz ft)
            subtract(moment_n, moment_t, lt)
            add(fk_head, fk_tail, acc)              # leg sums (lt, -, fn, -, ft)
            multiply(acc, inv_mass, acc)
            divide(alpha, inertia, alpha)
            subtract(az, gravity, az)
            multiply(acc, dt, acc)
            add(vk, acc, vn)
            multiply(vn, dt, acc)
            add(pk, acc, pn)
            cos(pitch_n, cos_n)
            sin(pitch_n, sin_n)

    # -- readers of the last step ------------------------------------------------

    def _last_step(self) -> "_StepBuffers":
        if self._buffers is None:
            raise RuntimeError("no step has run yet: joint_torques, foot_contacts "
                               "and flight read the last step's buffers")
        return self._buffers

    def joint_torques(self, out: np.ndarray | None = None) -> np.ndarray:
        """(E, 4) substep-averaged torque proxy of the last step, written
        into ``out`` if given: the PD effort plus the Jacobian-transpose
        contact load, summed in substep order.

        It reads the last step's buffers, so it holds until the next step;
        ``reset_rows`` leaves them as they are. Raises before the first step.
        """
        b = self._last_step()
        K = b.substeps
        add, subtract, multiply = np.add, np.subtract, np.multiply
        trig, jac = b.trig_jac, b.jac
        terms, parts = b.scratch
        # the PD effort kp (target - q) - kd qd after each substep
        subtract(b.target, b.q[K], b.gap[K])
        tau, load = b.tau, b.load
        multiply(b.gap[1:], b.kp, tau)
        multiply(b.qd, b.kd, load)
        subtract(tau, load, tau)
        # the contact load (c jx - s jz) ft + (s jx + c jz) fn, with (c, s)
        # and then (fn, ft) of each substep copied to the shape of the
        # Jacobian
        np.copyto(trig, b.state[:K, _COS:_SIN + 1].transpose(1, 0, 2)[:, None, :, None])
        multiply(trig, jac, terms)                # (c jx, s jz)
        multiply(trig[1], jac[0], parts[0])       # s jx
        multiply(trig[0], jac[1], parts[1])       # c jz
        add(parts[0], parts[1], parts[0])
        subtract(terms[0], terms[1], parts[1])
        np.copyto(terms, b.force[:, _FN:_FT + 1].transpose(1, 0, 2, 3)[:, None])
        multiply(parts, terms, parts)             # ((s jx + c jz) fn, (c jx - s jz) ft)
        add(parts[1], parts[0], terms[0])
        np.copyto(load.reshape(K, 2, 2, -1), terms[0].transpose(1, 2, 0, 3))
        add(tau, load, tau)
        if out is None:
            out = np.empty((self.num_envs, 4))
        # the substeps are the outer axis, so numpy adds them one by one, in
        # order; it sums pairwise only along the axis it loops over inside
        np.add.reduce(tau, axis=0, out=out.T)
        np.divide(out, b.substep_count, out=out)
        return out

    def foot_contacts(self) -> np.ndarray:
        """(E, 2) bool: which feet are below the ground at the end of the
        last step, front then rear. Holds until the next step, as
        `joint_torques` does; raises before the first step."""
        b = self._last_step()
        K = b.substeps
        # the last substep's legs, rotated by the final pitch
        end, u, w = b.state[K], b.kin[_U, K - 1], b.kin[_W, K - 1]
        fz = end[_Z] + (end[_SIN] * u + end[_COS] * w)
        return np.ascontiguousarray((fz < 0.0).T)

    def flight(self, airborne: np.ndarray, flight_angle: np.ndarray) -> tuple:
        """Flight and landing bookkeeping of the last step over its substeps,
        for a caller that keeps each row's flight state: ``airborne``, (E,)
        bool, and ``flight_angle``, (E,) rad, which it updates in place. The
        caller calls it once after each step it tracks, and clears a row
        (False, 0.0) when it resets it.

        A substep is in flight when neither foot nor the body touches the
        ground; a foot touching down after a flight substep is a landing,
        which reports the pitch traversed since take-off and restarts the
        count. Returns (landing, angle), each (E,): the landing flag and the
        reported angle, the one at the last landing or else the running
        flight angle. Raises before the first step.
        """
        b, p = self._last_step(), self.params
        after = b.state[1:]
        foot_down = (b.contact > 0.0).any(axis=1)   # (K, E)
        in_flight = ~(foot_down | check_termination_arrays(
            after[:, _Z], after[:, _COS:_SIN + 1].transpose(1, 0, 2), p))
        # a touchdown is a foot down after a substep in flight
        touched = foot_down
        touched[0] &= airborne
        touched[1:] &= in_flight[:-1]
        # a zero increment off flight leaves the angle as it is
        inc = after[:, _OM] * p.dt_physics
        inc *= in_flight
        landing_angle = np.zeros_like(flight_angle)
        touched_any = touched.any(axis=1)
        for k in np.flatnonzero(touched_any | in_flight.any(axis=1)):
            if touched_any[k]:
                np.copyto(landing_angle, flight_angle, where=touched[k])
                np.copyto(flight_angle, 0.0, where=touched[k])
            flight_angle += inc[k]
        airborne[...] = in_flight[-1]
        landing = touched.any(axis=0)
        return landing, np.where(landing, landing_angle, flight_angle)

    # -- views ------------------------------------------------------------------

    def observation_features(self) -> np.ndarray:
        """Base-only observation features for every env, (E, 6)."""
        return phi_extract_arrays(self.vx, self.vz, self.pitch, self.om, self.z)


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

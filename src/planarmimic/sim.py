"""Planar legged-robot environment and the rough demonstration generator.

The robot is a rigid body (a rectangle in the x-z plane) with two massless
2-joint legs. Joint positions follow commanded targets through a first-order
tracking law; foot contact is a one-sided spring-damper with Coulomb-capped
tangential friction, and the resulting forces act on the body. Because the
legs carry no mass, a joint-torque proxy (PD effort plus Jacobian-transpose
contact load) stands in for actuator torque in the regularization penalties.

Everything is batched over environments; a batch of one gives the scalar
semantics used in tests. A control step runs its physics substeps in four
phases split along their data dependencies (see `PlanarEnv.step`): joint
tracking, then body-frame leg kinematics of every substep in one batch, then
the contact-and-body loop that alone must go substep by substep, then the
torque proxy, termination and flight bookkeeping in batches over all
substeps. Each value comes from the same IEEE operations, in the same order,
as in a plain loop over the substeps, so the result is bit-identical to it.

The contact-and-body loop runs about 30 numpy calls per substep, on arrays
of a few rows of E values, so at small E its time is numpy's per-call cost.
Its calls keep to numpy's fast path: every array operand has the shape of
the output and is contiguous, and no operand needs a cast; other operands
are 0-d. A broadcast operand, a strided view or a mixed dtype sends a call
through numpy's general iterator, at about twice the cost of a small call.
The buffers are laid out for this (see `_StepBuffers`), and a test checks
every call of the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OBS_DIM, phi_extract_arrays

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
        if self.contact_stiffness < 1.0:
            errors.append("sim.contact_stiffness must be >= 1 N/m")
        if self.body_mass <= 0 or self.body_inertia <= 0:
            errors.append("sim.body_mass and sim.body_inertia must be > 0")
        if self.mass_perturb_high < self.mass_perturb_low:
            errors.append("sim.mass_perturb_high must be >= sim.mass_perturb_low")
        if self.body_mass + self.mass_perturb_low <= 0:
            errors.append("sim.body_mass + sim.mass_perturb_low must be > 0")
        if any(h <= l for l, h in zip(self.joint_limits_low, self.joint_limits_high)):
            errors.append("sim.joint_limits_high must exceed joint_limits_low")
        if self.max_episode_time <= 0:
            errors.append("sim.max_episode_time must be > 0")
        return errors


@dataclass
class StepBatch:
    """Outcome of one control step for every environment."""

    foot_contacts: np.ndarray         # (E, 2) bool at end of step
    joint_torques: np.ndarray         # (E, 4) substep-averaged torque proxy
    landing_event: np.ndarray         # (E,) bool, air -> ground this step
    flight_traversed_angle: np.ndarray  # (E,) rad, signed pitch integral in flight
    terminal: np.ndarray              # (E,) bool, body polygon touched ground
    timeout: np.ndarray               # (E,) bool, episode clock expired


def check_termination_arrays(base_z, cos_pitch, sin_pitch, params: SimParams):
    """True where any corner of the body rectangle is at or below the ground,
    for bodies at height ``base_z`` whose pitch has the given cos and sin."""
    # lowest corner height: z - (|s| * half_length + |c| * half_height)
    lowest = base_z - (np.abs(sin_pitch) * params.half_length
                       + np.abs(cos_pitch) * params.half_height)
    return lowest <= 0.0


def leg_kinematics(q, qd, params: SimParams, out):
    """Body-frame kinematics of both legs.

    ``q`` and ``qd`` are joint angles and rates shaped (..., 4, E): the
    (hip, knee) of the front leg, then of the rear leg, for E environments
    after any leading shape. Returns ``(body, jac)``, each (..., 2, 2, 2, E):

    - ``body[..., b, a, leg, :]``: coordinate a (x, z) of the foot's offset
      from the COM (b = 0) or of its velocity (b = 1);
    - ``jac[..., a, j, leg, :]``: coordinate a of the Jacobian column of
      joint j (hip, knee), the one the torque proxy maps contact forces by.

    One sin and one cos cover every hip and foot-link angle. They are
    written into ``out``, a (body, jac) pair of arrays of those shapes.
    """
    l1, l2 = params.link_lengths
    lead, E = q.shape[:-2], q.shape[-1]
    q = q.reshape(lead + (2, 2, E))          # (leg, joint)
    qd = qd.reshape(lead + (2, 2, E))
    body, jac = out
    th = body[..., 1, :, :, :]               # scratch until the velocity is written
    th[..., 0, :, :] = q[..., 0, :]
    np.add(q[..., 0, :], q[..., 1, :], out=th[..., 1, :, :])
    np.cos(th, out=jac[..., 0, :, :, :])
    np.sin(th, out=jac[..., 1, :, :, :])
    jac *= np.array([l1, l2])[:, None, None]     # (l c, l s) of each link
    hip_x = np.array([params.half_length, -params.half_length])[:, None]
    np.add(hip_x, jac[..., 1, 0, :, :], out=body[..., 0, 0, :, :])
    body[..., 0, 0, :, :] += jac[..., 1, 1, :, :]
    jac[..., 0, :, :] += jac[..., 1, :, :]       # the hip moves both links
    np.negative(jac[..., 0, 0, :, :], out=body[..., 0, 1, :, :])
    vel = body[..., 1, :, :, :]
    np.multiply(jac[..., 0, :, :], qd[..., None, :, 0, :], out=vel)
    vel += jac[..., 1, :, :] * qd[..., None, :, 1, :]
    return body, jac


# Rows of the body state of a substep in `PlanarEnv.step`: the position
# (x, z, pitch), the velocity (vx, vz, om) in the same order, and the cosine
# and sine of the pitch.
_X, _Z, _PITCH, _VX, _VZ, _OM, _COS, _SIN = range(8)
# Rows of a contact force: normal (z), tangential (x).
_FN, _FT = 0, 1


class _StepBuffers:
    """The arrays `PlanarEnv.step` writes, kept from one step to the next:
    fresh multi-megabyte arrays every step would cost more in page faults
    than the arithmetic at E >= 256. Component axes come first and E last,
    so each batched phase reads runs of E contiguous values.

    The contact loop's arrays are laid out for numpy's fast path: every
    operand of its calls has the shape of the call's output and is
    contiguous, or is 0-d. Per-leg arrays are (component, leg, E); the
    per-env values a per-leg call reads are copied per leg first
    (``per_leg``, ``per_product``), and the rotation operands are stacked
    for all substeps before the loop (``rot_in``)."""

    def __init__(self, env: "PlanarEnv", substeps: int):
        K, E = substeps, env.num_envs
        self.substeps = K
        self.lo = np.repeat(env._lo[:, None], E, axis=1)
        self.hi = np.repeat(env._hi[:, None], E, axis=1)
        # per substep; q and state lead with the state before it
        self.q = np.empty((K + 1, 4, E))
        self.qd = np.empty((K, 4, E))
        # the operands of the rotation: each substep's foot offset and
        # velocity in the body frame (u, w, du, dw) (`leg_kinematics`'s
        # ``body``), then (-w, u, -dw, du)
        self.rot_in = np.empty((K, 8, 2, E))
        self.body = self.rot_in[:, :4].reshape(K, 2, 2, 2, E)
        self.jac = np.empty((K, 2, 2, 2, E))
        self.state = np.empty((K + 1, 8, E))      # rows _X .. _SIN
        self.force = np.empty((K, 2, 2, E))       # rows _FN, _FT per leg
        self.contact = np.empty((K, 2, E))        # 1.0 where the foot is down
        # scratch of one substep
        self.cmd = np.empty((4, E))
        self.inv_mass = np.empty((2, E))
        self.gains = np.empty((3, 2, E))
        # om, cos and sin of the pitch four times per leg, and z, pitch, vx
        # and vz once per leg
        self.per_product = np.empty((3, 4, 2, E))
        self.per_leg = np.empty((4, 2, E))
        self.prod = np.empty((8, 2, E))
        self.rot = np.empty((4, 2, E))
        self.om_r = np.empty((2, 2, E))
        self.foot = np.empty((3, 2, E))           # (vfx, vfz, fz)
        self.gained = np.empty((3, 2, E))
        self.push = np.empty((2, E))
        self.cap = np.empty((2, 2, E))            # (upper, lower) friction bound
        self.moment = np.empty((2, 2, E))
        self.leg_torque = np.empty((2, E))
        self.acc = np.empty((3, E))
        # scratch of the torque proxy
        self.tau = np.empty((K, 4, E))
        self.term = np.empty((K, 2, 2, E))
        self.load = np.empty((K, 2, 2, E))
        self.tmp = np.empty((K, 2, 2, E))
        # the views substep k of the contact loop reads and writes
        state, force = self.state, self.force
        self.views = list(zip(
            state[:-1, :_PITCH + 1], state[1:, :_PITCH + 1],
            state[:-1, _VX:_OM + 1], state[1:, _VX:_OM + 1],
            state[:-1, _OM:, None, None, :], state[:-1, _Z:_VZ + 1, None, :],
            self.rot_in, self.contact, force, force[:, _FN], force[:, _FT],
            state[1:, _PITCH], state[1:, _COS], state[1:, _SIN]))


# the arrays of an env's state, each with a row per env: with the rows'
# generators, what a checkpoint keeps of an env
STATE_ARRAYS = ("x", "z", "pitch", "vx", "vz", "om", "q", "qd", "time", "mass",
                "flight_angle", "steps", "terminal", "airborne")


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
        self.time = np.zeros(E)
        self.steps = np.zeros(E, dtype=np.int64)
        self.mass = np.full(E, params.body_mass)
        self.terminal = np.zeros(E, dtype=bool)
        self.flight_angle = np.zeros(E)
        self.airborne = np.zeros(E, dtype=bool)
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
        for a in (self.x, self.pitch, self.vx, self.vz, self.om, self.qd,
                  self.time, self.steps, self.flight_angle):
            a[rows] = 0
        self.z[rows] = p.nominal_height() + hn
        self.q[rows] = np.clip(NOMINAL_JOINT_POS + jn, self._lo, self._hi)
        self.mass[rows] = p.body_mass + dm
        self.terminal[rows] = False
        self.airborne[rows] = False

    # -- stepping ---------------------------------------------------------------

    def step(self, actions: np.ndarray) -> StepBatch:
        """Advance every environment by one control period (decimated physics
        substeps). ``actions`` are joint-target offsets from the nominal pose,
        scaled by ``action_scale`` and clipped to the joint limits.

        The K = ``control_decimation`` substeps run in four phases, split
        along their data dependencies:

        1. Joint tracking depends only on the joints and their targets, so it
           runs first as its own recurrence, giving every substep's joints.
        2. Body-frame leg kinematics of all K substeps, in one batch.
        3. Contact forces and body integration: the only loop that must run
           substep by substep. The pitch's cos and sin at the end of a
           substep are carried into the next one.
        4. After the loop, in batches over all K substeps: the torque proxy
           (accumulated in substep order), termination, flight and landing
           bookkeeping, and the end-of-step foot contacts.

        The result is bit-identical to a loop that does all of this substep
        by substep (the tests keep that loop as an oracle). The phases only
        move work between values that do not depend on each other, and each
        value comes from the same IEEE operations in the same order, or from
        an exact identity of them: ``c u - s w`` as ``c u + (-s) w`` or
        ``c u + s (-w)``, a sum of two products in either order, a contact
        mask as a product with 0 or 1, a skipped addition as the addition of
        a zero. Sums over the two legs are written out as
        ``front + rear``, and the torque proxy is summed over the substeps
        with a sequential accumulate, never a reduction numpy may reassociate.
        """
        p = self.params
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != (self.num_envs, 4):
            raise ValueError(f"actions must have shape ({self.num_envs}, 4)")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite action")
        K = p.control_decimation
        if self._buffers is None or self._buffers.substeps != K:
            self._buffers = _StepBuffers(self, K)
        b = self._buffers
        q_target = np.minimum(np.maximum(NOMINAL_JOINT_POS + p.action_scale * a,
                                         self._lo), self._hi).T.copy()

        self._track_joints(b, q_target)
        leg_kinematics(b.q[1:], b.qd, p, out=(b.body, b.jac))
        self._integrate_body(b)

        state = b.state
        base = check_termination_arrays(state[1:, _Z], state[1:, _COS],
                                        state[1:, _SIN], p)
        landing, angle_report = self._account_flight(b, base)
        # the last substep's legs, rotated by the final pitch
        end, body = state[K], b.body[K - 1]
        fz = end[_Z] + (end[_SIN] * body[0, 0] + end[_COS] * body[0, 1])

        self.q[...] = b.q[K].T
        self.qd[...] = b.qd[K - 1].T
        self.x[...], self.z[...], self.pitch[...] = end[:_PITCH + 1]
        self.vx[...], self.vz[...], self.om[...] = end[_VX:_OM + 1]
        self.time += p.control_dt
        self.steps += 1
        terminal = base[K - 1].copy()
        # reset_rows clears the env's flags in place; the result keeps its own
        self.terminal = terminal.copy()
        return StepBatch(
            foot_contacts=np.ascontiguousarray((fz < 0.0).T),
            joint_torques=np.ascontiguousarray(self._torque_proxy(b, q_target).T),
            landing_event=landing,
            flight_traversed_angle=angle_report,
            terminal=terminal,
            timeout=self.time >= p.max_episode_time - 1e-12,
        )

    def _track_joints(self, b: "_StepBuffers", q_target: np.ndarray) -> None:
        """Phase 1: first-order, velocity-limited joint tracking of every
        substep into ``b.q`` (K + 1 rows, the first the current joints) and
        ``b.qd`` (K rows)."""
        p = self.params
        rate, vmax, dt = (np.array(v) for v in (p.tracking_rate, p.max_joint_vel,
                                                 p.dt_physics))
        nvmax = -vmax
        q, cmd, lo, hi = b.q, b.cmd, b.lo, b.hi
        add, subtract, multiply, maximum, minimum = (
            np.add, np.subtract, np.multiply, np.maximum, np.minimum)
        q[0] = self.q.T
        for cur, nxt in zip(q[:-1], q[1:]):
            subtract(q_target, cur, cmd)
            multiply(cmd, rate, cmd)
            maximum(cmd, nvmax, out=cmd)
            minimum(cmd, vmax, out=cmd)
            multiply(cmd, dt, cmd)
            add(cur, cmd, nxt)
            maximum(nxt, lo, out=nxt)
            minimum(nxt, hi, out=nxt)
        np.subtract(q[1:], q[:-1], out=b.qd)
        b.qd /= dt

    def _integrate_body(self, b: "_StepBuffers") -> None:
        """Phase 3: contact forces and semi-implicit Euler integration of the
        body, substep by substep, into ``b.state``, ``b.force`` and
        ``b.contact``.

        Ground contact is a one-sided spring-damper per foot; friction is
        tangential damping capped at ``friction`` times the normal force.
        The foot offset and velocity rotate into the world frame in one
        product of the stacked (cos, sin) with ``b.rot_in`` and one sum:
        (rx, rz, dx, dz) = ``c (u, w, du, dw) + s (-w, u, -dw, du)``, whose
        rows ``c u - s w`` are ``c u + s (-w)``. A foot is down where its
        spring term ``-k fz`` is positive (a float mask, ``np.heaviside``):
        exactly where ``fz < 0``, since a stiffness of at least 1 cannot
        round a nonzero product to zero.

        The calls of the loop take numpy's fast path: each operand has the
        shape of the output and is contiguous, or is 0-d (the tests check
        this). So the ufuncs are bound to names once, and take ``out``
        positionally where numpy allows it.
        """
        p = self.params
        state, body, rot_in = b.state, b.body, b.rot_in
        state[0, :_PITCH + 1] = (self.x, self.z, self.pitch)
        state[0, _VX:_OM + 1] = (self.vx, self.vz, self.om)
        np.cos(self.pitch, out=state[0, _COS])
        np.sin(self.pitch, out=state[0, _SIN])
        np.divide(1.0, self.mass, out=b.inv_mass[0])
        b.inv_mass[1] = b.inv_mass[0]
        b.gains[...] = np.array([-p.tangential_damping, p.contact_damping,
                                 -p.contact_stiffness])[:, None, None]
        np.negative(body[:, :, 1], out=rot_in[:, 4::2])   # -w, -dw
        np.copyto(rot_in[:, 5::2], body[:, :, 0])         # u, du
        zero, inertia, gravity, dt, mu, neg_mu = (np.array(v) for v in (
            0.0, p.body_inertia, p.gravity, p.dt_physics, p.friction, -p.friction))
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        maximum, minimum, heaviside, cos, sin, copyto = (
            np.maximum, np.minimum, np.heaviside, np.cos, np.sin, np.copyto)
        per_product, per_leg, prod, rot, om_r, foot, gained = (
            b.per_product, b.per_leg, b.prod, b.rot, b.om_r, b.foot, b.gained)
        push, cap, moment, leg_torque, acc, inv_mass, gains = (
            b.push, b.cap, b.moment, b.leg_torque, b.acc, b.inv_mass, b.gains)
        om, trig = per_product[0, :2], per_product[1:].reshape(8, 2, -1)
        z, vx, vz = per_leg[0], per_leg[2], per_leg[3]
        prod_cos, prod_sin = prod[:4], prod[4:]
        r, rz, drot = rot[:2], rot[1], rot[2:]      # r = (rx, rz)
        om_rx, om_rz = om_r
        vf, vfx, vfz, fz = foot[:2], foot[0], foot[1], foot[2]
        ft_push, fz_push, fz_spring = gained
        cap_hi, cap_lo = cap
        moment_n, moment_t = moment
        torque_front, torque_rear = leg_torque
        acc_xz, acc_x, acc_z, alpha = acc[:_Z + 1], acc[_X], acc[_Z], acc[_PITCH]
        for (pk, pn, vk, vn, per_product_k, per_leg_k, ops, ck, fk, fn, ft,
             pitch_n, cos_n, sin_n) in b.views:
            copyto(per_product, per_product_k)
            copyto(per_leg, per_leg_k)
            multiply(trig, ops, prod)
            add(prod_cos, prod_sin, rot)            # (rx, rz, dx, dz)
            # world foot velocity (vx - om rz, vz + om rx) + (dx, dz) and
            # height z + rz
            multiply(om, r, om_r)
            subtract(vx, om_rz, vfx)
            add(vz, om_rx, vfz)
            add(vf, drot, vf)
            add(z, rz, fz)
            multiply(gains, foot, gained)           # (-c_t vfx, c_d vfz, -k fz)
            heaviside(fz_spring, zero, ck)          # 1.0 where fz < 0
            subtract(fz_spring, fz_push, push)
            maximum(zero, push, out=push)
            multiply(push, ck, fn)
            # an airborne foot has a zero cap, so its friction clamps to zero
            multiply(fn, mu, cap_hi)
            multiply(fn, neg_mu, cap_lo)
            maximum(ft_push, cap_lo, out=ft)
            minimum(ft, cap_hi, out=ft)
            multiply(r, fk, moment)                 # (rx fn, rz ft)
            subtract(moment_n, moment_t, leg_torque)
            add(torque_front, torque_rear, alpha)
            divide(alpha, inertia, alpha)
            add(ft[0], ft[1], acc_x)
            add(fn[0], fn[1], acc_z)
            multiply(acc_xz, inv_mass, acc_xz)
            subtract(acc_z, gravity, acc_z)
            multiply(acc, dt, acc)
            add(vk, acc, vn)
            multiply(vn, dt, acc)
            add(pk, acc, pn)
            cos(pitch_n, cos_n)
            sin(pitch_n, sin_n)

    def _torque_proxy(self, b: "_StepBuffers", q_target: np.ndarray) -> np.ndarray:
        """Phase 4: the substep-averaged PD effort plus Jacobian-transpose
        contact load, (4, E), summed in substep order."""
        p = self.params
        K, E = p.control_decimation, self.num_envs
        tau, term, load, tmp = b.tau, b.term, b.load, b.tmp
        np.subtract(q_target, b.q[1:], out=tau)
        tau *= p.kp
        np.multiply(b.qd, p.kd, out=tmp.reshape(K, 4, E))
        tau -= tmp.reshape(K, 4, E)
        c, s = b.state[:K, _COS, None, None], b.state[:K, _SIN, None, None]
        jx, jz = b.jac[:, 0], b.jac[:, 1]     # (K, joint, leg, E)
        # (c jx - s jz) ft + (s jx + c jz) fn
        np.multiply(c, jx, out=term)
        np.multiply(s, jz, out=tmp)
        term -= tmp
        term *= b.force[:, _FT, None]
        np.multiply(s, jx, out=load)
        np.multiply(c, jz, out=tmp)
        load += tmp
        load *= b.force[:, _FN, None]
        term += load
        tau.reshape(K, 2, 2, E)[...] += term.transpose(0, 2, 1, 3)
        return np.add.accumulate(tau, axis=0)[K - 1] / K

    def _account_flight(self, b: "_StepBuffers", base: np.ndarray):
        """Phase 4: flight and landing bookkeeping over the K substeps.

        A substep is in flight when neither foot nor the body touches the
        ground; a foot touching down after a flight substep is a landing,
        which reports the pitch traversed since take-off and restarts the
        count. Returns (landing, angle): the landing flag and the reported
        angle, the one at the last landing or else the running flight angle.
        """
        E, dt = self.num_envs, self.params.dt_physics
        contact = b.contact > 0.0
        foot_down = contact[:, 0] | contact[:, 1]
        in_flight = ~(foot_down | base)
        touched = foot_down
        touched[0] &= self.airborne
        touched[1:] &= in_flight[:-1]
        landing_angle = np.zeros(E)
        fa = self.flight_angle
        if self.airborne.any() or in_flight.any():
            # a zero increment off flight leaves the angle as it is
            inc = b.state[1:, _OM] * dt
            inc *= in_flight
            touched_any = touched.any(axis=1)
            for k in np.flatnonzero(touched_any | in_flight.any(axis=1)):
                if touched_any[k]:
                    np.copyto(landing_angle, fa, where=touched[k])
                    np.copyto(fa, 0.0, where=touched[k])
                fa += inc[k]
        self.airborne = in_flight[-1].copy()
        landing = touched.any(axis=0)
        return landing, np.where(landing, landing_angle, fa)

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

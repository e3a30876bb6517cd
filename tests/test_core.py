import math

import numpy as np
import pytest

from planarmimic.core import (GRAVITY_UNIT_TOL, OBS_DIM, BatchWindowBuffer,
                              ReferenceDataset, load_reference_dataset,
                              phi_extract_arrays, sample_reference_windows,
                              save_reference_csv)
from planarmimic.sim import PlanarEnv, SimParams


def phi(base_vx=0.0, base_vz=0.0, pitch=0.0, pitch_rate=0.0, base_z=0.3):
    """Observation of one base state: a batch of one."""
    return phi_extract_arrays(np.array([base_vx]), np.array([base_vz]),
                              np.array([pitch]), np.array([pitch_rate]),
                              np.array([base_z]))[0]


class TestPhiExtract:
    def test_upright_at_rest(self):
        assert phi(base_z=0.30) == pytest.approx([0, 0, 0, 0, -1, 0.30])

    def test_quarter_turn_gravity(self):
        obs = phi(pitch=math.pi / 2, base_z=0.30)
        assert obs[3] == pytest.approx(-1.0)
        assert obs[4] == pytest.approx(0.0, abs=1e-15)

    def test_velocity_rotation_against_matrix_oracle(self):
        # oracle: apply the 2x2 rotation matrix R(-pitch) literally
        pitch = math.pi / 4
        v_world = np.array([1.0, 0.0])
        c, s = math.cos(pitch), math.sin(pitch)
        rot = np.array([[c, s], [-s, c]])
        expected = rot @ v_world
        obs = phi(pitch=pitch, base_vx=1.0)
        assert obs[0] == pytest.approx(expected[0])
        assert obs[1] == pytest.approx(expected[1])
        # frozen closed-form values
        assert obs[0] == pytest.approx(0.70710678, abs=1e-8)
        assert obs[1] == pytest.approx(-0.70710678, abs=1e-8)

    def test_rotation_oracle_random_states(self):
        rng = np.random.default_rng(42)
        pitch = rng.uniform(-2 * math.pi, 2 * math.pi, size=100)
        v = rng.normal(size=(100, 2))
        obs = phi_extract_arrays(v[:, 0], v[:, 1], pitch, np.zeros(100),
                                 np.full(100, 0.3))
        for k in range(100):
            c, s = math.cos(pitch[k]), math.sin(pitch[k])
            expected = np.array([[c, s], [-s, c]]) @ v[k]
            assert np.allclose(obs[k, :2], expected, atol=1e-12)

    def test_joint_fields_are_ignored(self):
        rng = np.random.default_rng(0)
        env = PlanarEnv(SimParams(), num_envs=3, seed=1)
        env.step(rng.normal(size=(3, 4)) * 0.3)
        reference = env.observation_features()
        for _ in range(20):
            env.q = rng.normal(size=(3, 4))
            env.qd = rng.normal(size=(3, 4))
            assert np.array_equal(env.observation_features(), reference)

    def test_gravity_unit_norm(self):
        rng = np.random.default_rng(7)
        pitch = rng.uniform(-10, 10, size=200)
        obs = phi_extract_arrays(np.zeros(200), np.zeros(200), pitch,
                                 np.zeros(200), np.full(200, 0.3))
        assert np.abs(np.hypot(obs[:, 3], obs[:, 4]) - 1.0).max() <= GRAVITY_UNIT_TOL

    def test_batch_matches_scalar(self):
        # every row of a batch equals the same state mapped as a batch of one
        rng = np.random.default_rng(3)
        states = rng.normal(size=(5, 16))
        states[4] = rng.uniform(0, 1, size=16)
        batch = phi_extract_arrays(*states)
        for row, state in zip(batch, states.T):
            assert np.array_equal(row, phi(*state))


class TestWindowBuffer:
    def test_horizon_one(self):
        buf = BatchWindowBuffer(2, 1)
        buf.reset_rows(np.ones(2, dtype=bool), np.zeros((2, OBS_DIM)))
        frames = np.arange(12.0).reshape(2, OBS_DIM)
        assert np.array_equal(buf.push(frames), frames)

    def test_reset_pads_with_first(self):
        buf = BatchWindowBuffer(3, 3)
        buf.reset_rows(np.ones(3, dtype=bool), np.zeros((3, OBS_DIM)))
        buf.push(np.ones((3, OBS_DIM)))
        first = np.arange(18.0).reshape(3, OBS_DIM)
        buf.reset_rows(np.array([False, True, False]), first)
        state = buf.state()
        assert np.array_equal(state[1], np.tile(first[1], (3, 1)))
        for row in (0, 2):  # rows outside the mask keep their history
            assert np.array_equal(state[row, :2], np.zeros((2, OBS_DIM)))
            assert np.array_equal(state[row, 2], np.ones(OBS_DIM))

    def test_push_drops_oldest(self):
        buf = BatchWindowBuffer(1, 2)
        a, b, c = (np.full((1, OBS_DIM), v) for v in (1.0, 2.0, 3.0))
        buf.reset_rows(np.ones(1, dtype=bool), a)
        buf.push(b)
        buf.push(c)
        assert np.array_equal(buf.state()[0], np.concatenate([b, c]))

    def test_flattening_is_time_major(self):
        buf = BatchWindowBuffer(1, 2)
        buf.reset_rows(np.ones(1, dtype=bool), np.zeros((1, OBS_DIM)))
        flat = buf.push(np.arange(6.0)[None, :])[0]
        assert np.array_equal(flat[:6], np.zeros(6))
        assert np.array_equal(flat[6:], np.arange(6.0))


def _write_dataset(tmp_path, n_traj=3, length=30, dt=0.02, seed=0, multi=False):
    rng = np.random.default_rng(seed)
    trajectories = []
    for _ in range(n_traj):
        pitch = rng.normal(scale=0.2, size=length)
        traj = np.column_stack([
            rng.normal(size=length), rng.normal(size=length),
            rng.normal(size=length), -np.sin(pitch), -np.cos(pitch),
            rng.uniform(0.1, 0.5, size=length)])
        trajectories.append(traj)
    if multi:
        target = tmp_path / "refs.csv"
    else:
        target = tmp_path / "refs"
    save_reference_csv(target, trajectories, dt, multi=multi)
    return target, trajectories


class TestReferenceDataset:
    @pytest.mark.parametrize("multi", [False, True])
    def test_round_trip_bit_exact(self, tmp_path, multi):
        target, trajectories = _write_dataset(tmp_path, multi=multi)
        ds = load_reference_dataset(target, horizon=4)
        assert ds.num_trajectories == len(trajectories)
        for loaded, original in zip(ds.trajectories, trajectories):
            assert np.array_equal(loaded, original)
        assert ds.dt == pytest.approx(0.02, abs=1e-12)

    def test_trajectory_shorter_than_horizon(self, tmp_path):
        target, _ = _write_dataset(tmp_path, length=5)
        with pytest.raises(ValueError, match="shorter than horizon"):
            load_reference_dataset(target, horizon=16)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="no trajectories"):
            load_reference_dataset(f, horizon=1)

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("time,vx,vz\n0,1,2\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_reference_dataset(f, horizon=1)

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,vx,vz,pitch_rate,gx,gz,height\n0,1,2,3,oops,1,0.3\n"
                     "0.02,1,2,3,0,1,0.3\n")
        with pytest.raises(ValueError, match="non-numeric cell"):
            load_reference_dataset(f, horizon=1)

    def test_non_unit_gravity(self, tmp_path):
        f = tmp_path / "bad.csv"
        rows = ["t,vx,vz,pitch_rate,gx,gz,height"]
        for i in range(4):
            rows.append(f"{i * 0.02},0,0,0,0.5,-0.5,0.3")
        f.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="non-unit gravity"):
            load_reference_dataset(f, horizon=1)

    def test_nine_digit_gravity_is_renormalized(self, tmp_path):
        # 9-significant-digit files can miss unit norm by ~1e-9
        f = tmp_path / "nine.csv"
        gx, gz = -math.sin(0.4), -math.cos(0.4)
        rows = ["t,vx,vz,pitch_rate,gx,gz,height"]
        for i in range(4):
            rows.append(f"{i * 0.02},0,0,0,{gx:.9g},{gz:.9g},0.3")
        f.write_text("\n".join(rows) + "\n")
        ds = load_reference_dataset(f, horizon=2)
        ds.validate(horizon=2)  # unit-norm invariant holds after load

    def test_non_uniform_dt(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,vx,vz,pitch_rate,gx,gz,height\n"
                     "0,0,0,0,0,-1,0.3\n0.02,0,0,0,0,-1,0.3\n0.05,0,0,0,0,-1,0.3\n")
        with pytest.raises(ValueError, match="non-uniform time step"):
            load_reference_dataset(f, horizon=1)

    def test_paper_sized_dataset(self, tmp_path):
        target, _ = _write_dataset(tmp_path, n_traj=20, length=60)
        ds = load_reference_dataset(target, horizon=16)
        assert ds.num_trajectories == 20
        assert all(t.shape == (60, 6) for t in ds.trajectories)


class TestSampling:
    def _dataset(self, lengths, seed=0):
        rng = np.random.default_rng(seed)
        trajs = []
        for n in lengths:
            pitch = rng.normal(scale=0.1, size=n)
            trajs.append(np.column_stack([
                rng.normal(size=n), rng.normal(size=n), rng.normal(size=n),
                -np.sin(pitch), -np.cos(pitch), rng.uniform(0.2, 0.4, size=n)]))
        return ReferenceDataset(trajectories=trajs, dt=0.02)

    def test_single_window_dataset(self):
        ds = self._dataset([4])
        out = sample_reference_windows(ds, 10, 4, np.random.default_rng(0))
        assert out.shape == (10, 4, 6)
        for k in range(10):
            assert np.array_equal(out[k], ds.trajectories[0])

    def test_uniformity_binomial_bound(self):
        # two equal-length trajectories: counts within 3 sigma of 5000
        ds = self._dataset([40, 40])
        rng = np.random.default_rng(123)
        out = sample_reference_windows(ds, 10_000, 8, rng)
        from0 = 0
        for k in range(10_000):
            # identify source trajectory by exact row match of the window start
            hit0 = bool((ds.trajectories[0] == out[k][0]).all(axis=1).any())
            hit1 = bool((ds.trajectories[1] == out[k][0]).all(axis=1).any())
            assert hit0 != hit1  # random floats: no cross-trajectory collisions
            from0 += 1 if hit0 else 0
        sigma = math.sqrt(10_000 * 0.25)
        assert abs(from0 - 5000) <= 3 * sigma

    def test_windows_are_contiguous_slices(self):
        ds = self._dataset([30, 25])
        rng = np.random.default_rng(5)
        out = sample_reference_windows(ds, 100, 6, rng)
        for k in range(100):
            found = False
            for t in ds.trajectories:
                for s in range(t.shape[0] - 5):
                    if np.array_equal(out[k], t[s:s + 6]):
                        found = True
                        break
                if found:
                    break
            assert found

    def test_same_seed_reproduces(self):
        ds = self._dataset([30, 25])
        a = sample_reference_windows(ds, 64, 4, np.random.default_rng(99))
        b = sample_reference_windows(ds, 64, 4, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_gather_matches_loop_oracle_on_ragged_dataset(self):
        ds = self._dataset([9, 30, 4, 17, 25])
        for horizon in (1, 2, 4):
            rng_a = np.random.default_rng(horizon)
            rng_b = np.random.default_rng(horizon)
            got = sample_reference_windows(ds, 257, horizon, rng_a)
            assert np.array_equal(got, loop_gather(ds, 257, horizon, rng_b))
            # one draw per call: both generators end in the same state
            assert rng_a.integers(2 ** 62) == rng_b.integers(2 ** 62)

    def test_index_is_kept_and_follows_the_trajectories(self):
        ds = self._dataset([9, 30, 4])
        first = ds.window_index(4)
        assert ds.window_index(4) is first
        assert ds.window_index(2) is not first
        # a replaced or added trajectory makes a new index, and the draws
        # still match the oracle
        ds.trajectories[1] = self._dataset([12]).trajectories[0]
        ds.trajectories.append(self._dataset([7]).trajectories[0])
        assert ds.window_index(4) is not first
        for seed in range(3):
            got = sample_reference_windows(ds, 50, 4, np.random.default_rng(seed))
            want = loop_gather(ds, 50, 4, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_trajectory_shorter_than_horizon_rejected(self):
        ds = self._dataset([30, 5])
        with pytest.raises(ValueError, match="trajectory 1 shorter than horizon"):
            sample_reference_windows(ds, 8, 6, np.random.default_rng(0))

    def test_zero_batch_rejected(self):
        ds = self._dataset([30])
        with pytest.raises(ValueError, match="batch"):
            sample_reference_windows(ds, 0, 4, np.random.default_rng(0))


def loop_gather(dataset, batch, horizon, rng):
    """The per-window loop gather ``sample_reference_windows`` used before it
    indexed all windows at once: the oracle for the fancy-index gather."""
    starts_per_traj = np.array([t.shape[0] - horizon + 1 for t in dataset.trajectories])
    offsets = np.concatenate([[0], np.cumsum(starts_per_traj)])
    flat = rng.integers(0, int(offsets[-1]), size=batch)
    out = np.empty((batch, horizon, OBS_DIM), dtype=np.float64)
    traj_idx = np.searchsorted(offsets, flat, side="right") - 1
    for b in range(batch):
        k = int(traj_idx[b])
        start = int(flat[b] - offsets[k])
        out[b] = dataset.trajectories[k][start:start + horizon]
    return out

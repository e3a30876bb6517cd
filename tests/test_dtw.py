import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarmimic.core import ReferenceDataset
from planarmimic.dtw import (DtwConfig, DtwReport, dtw_brute_force,
                             dtw_distance, dtw_distances, local_cost,
                             stand_still_rollout)
from planarmimic.sim import SimParams, generate_demo_set

INF = float("inf")


def cell_dtw(query, reference, cfg):
    """The per-cell dynamic program, the oracle of ``dtw_distance``: one
    accumulated cost at a time, each step's predecessor recorded as it is
    chosen (the first minimal one, in the pattern's step order), then the
    path read back from the end. Same return and errors as ``dtw_distance``."""
    cost = local_cost(query, reference)
    n, m = cost.shape
    acc = np.full((n, m), INF)
    came_from = {}
    acc[0, 0] = cost[0, 0]
    for i in range(1, n):
        for j in range(m):
            best, step = acc[i - 1, j], 0
            if j >= 1 and acc[i - 1, j - 1] < best:
                best, step = acc[i - 1, j - 1], 1
            if j >= 2 and acc[i - 1, j - 2] < best:
                best, step = acc[i - 1, j - 2], 2
            if best < INF:
                acc[i, j] = best + cost[i, j]
                came_from[i, j] = (i - 1, j - step)
    end_j = int(np.argmin(acc[n - 1])) if cfg.open_end else m - 1
    dist = float(acc[n - 1, end_j])
    if not np.isfinite(dist):
        raise ValueError(
            f"no admissible alignment for lengths ({n}, {m}) under "
            f"{cfg.step_pattern} (sequences too short for the step constraints)")
    path = [(n - 1, end_j)]
    while path[-1] != (0, 0):
        path.append(came_from[path[-1]])
    path.reverse()
    return dist, path


def cfgs():
    return [DtwConfig(open_end=open_end) for open_end in (False, True)]


class TestBasics:
    @pytest.mark.parametrize("pattern", ["mori_asymmetric"])
    def test_identical_sequences_zero(self, pattern):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(6, 3))
        cfg = DtwConfig(step_pattern=pattern, open_end=False)
        dist, path = dtw_distance(seq, seq, cfg)
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert path[0] == (0, 0)
        assert path[-1] == (5, 5)

    def test_open_end_single_query(self):
        # query [0] vs reference [0, 5]: open end matches the first element
        dist, path = dtw_distance(np.array([0.0]), np.array([0.0, 5.0]),
                                  DtwConfig("mori_asymmetric", True))
        assert dist == pytest.approx(0.0)
        assert path == [(0, 0)]

    def test_single_elements(self):
        for cfg in cfgs():
            dist, _ = dtw_distance(np.array([1.0]), np.array([4.0]), cfg)
            assert dist == pytest.approx(3.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for cfg in cfgs():
            for _ in range(20):
                a = rng.normal(size=(rng.integers(1, 7), 2))
                b = rng.normal(size=(rng.integers(1, 7), 2))
                try:
                    dist, _ = dtw_distance(a, b, cfg)
                except ValueError:
                    continue
                assert dist >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dtw_distance(np.zeros((3, 2)), np.zeros((3, 3)), DtwConfig())

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="non-empty"):
            dtw_distance(np.zeros((0, 2)), np.zeros((3, 2)), DtwConfig())

    def test_asymmetric_too_short_closed_end(self):
        # 2 query steps cannot consume 6 reference elements (max 2 per step)
        with pytest.raises(ValueError, match="too short"):
            dtw_distance(np.zeros((2, 1)), np.arange(6.0),
                         DtwConfig("mori_asymmetric", False))


class TestOracleEquivalence:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            a = rng.normal(size=(n, 2))
            b = rng.normal(size=(m, 2))
            cfg = DtwConfig(open_end=bool(rng.integers(2)))
            oracle = dtw_brute_force(a, b, cfg)
            if not np.isfinite(oracle):
                with pytest.raises(ValueError):
                    dtw_distance(a, b, cfg)
                continue
            dist, _ = dtw_distance(a, b, cfg)
            assert dist == pytest.approx(oracle, abs=1e-9)
            checked += 1
        assert checked > 800

    @pytest.mark.parametrize("cfg", cfgs(), ids=lambda c: f"{c.step_pattern}-open{c.open_end}")
    def test_every_combination_exhaustively(self, cfg):
        rng = np.random.default_rng(99)
        for _ in range(250):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            a = rng.normal(size=n)
            b = rng.normal(size=m)
            oracle = dtw_brute_force(a, b, cfg)
            if not np.isfinite(oracle):
                continue
            dist, _ = dtw_distance(a, b, cfg)
            assert dist == pytest.approx(oracle, abs=1e-9)

    def test_alignment_cost_recomputes_distance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(5, 2))
        cfg = DtwConfig("mori_asymmetric", True)
        dist, path = dtw_distance(a, b, cfg)
        total = sum(np.linalg.norm(a[i] - b[j]) for i, j in path)
        assert total == pytest.approx(dist, abs=1e-9)


def _sequences(max_count):
    frames = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)
    return st.lists(st.lists(frames, min_size=1, max_size=8),
                    min_size=1, max_size=max_count)


class TestBatched:
    @settings(max_examples=150, deadline=None)
    @given(queries=_sequences(3), references=_sequences(3),
           open_end=st.booleans())
    def test_matches_brute_force(self, queries, references, open_end):
        # ragged queries and references of up to 8 frames
        cfg = DtwConfig(open_end=open_end)
        oracle = np.array([[dtw_brute_force(q, r, cfg) for r in references]
                           for q in queries])
        if not np.isfinite(oracle).all():
            with pytest.raises(ValueError, match="no admissible alignment"):
                dtw_distances(queries, references, cfg)
            return
        got = dtw_distances(queries, references, cfg)
        assert got.shape == oracle.shape
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cfg", cfgs(), ids=lambda c: f"{c.step_pattern}-open{c.open_end}")
    def test_bit_exact_on_leap_pairs(self, cfg):
        # 130-frame rollouts against 130-frame demonstrations, plus one
        # shorter reference so the padding is exercised at full size
        params = SimParams()
        rng = np.random.default_rng(8)
        refs = generate_demo_set("leap", params, rng, n_trajectories=3)
        refs.append(refs[0][:97])
        queries = [r + 0.05 * rng.normal(size=r.shape) for r in refs[:2]]
        got = dtw_distances(queries, refs, cfg)
        for a, q in enumerate(queries):
            for b, r in enumerate(refs):
                want, want_path = cell_dtw(q, r, cfg)
                dist, path = dtw_distance(q, r, cfg)
                assert got[a, b] == dist == want
                assert path == want_path

    def test_same_errors_as_single_pair(self):
        cfg = DtwConfig()
        with pytest.raises(ValueError, match="non-empty"):
            dtw_distances([np.zeros((0, 2))], [np.zeros((3, 2))], cfg)
        with pytest.raises(ValueError, match="dimension mismatch"):
            dtw_distances([np.zeros((3, 2))], [np.zeros((3, 2)), np.zeros((3, 3))], cfg)
        with pytest.raises(ValueError, match=r"lengths \(2, 6\).*too short"):
            dtw_distances([np.zeros((2, 1))], [np.zeros((2, 1)), np.arange(6.0)],
                          DtwConfig("mori_asymmetric", False))
        with pytest.raises(ValueError, match="unknown step pattern"):
            dtw_distances([np.zeros(3)], [np.zeros(3)], DtwConfig("itakura"))


class TestBand:
    @pytest.mark.parametrize("cfg", cfgs(), ids=lambda c: f"{c.step_pattern}-open{c.open_end}")
    def test_repeated_rows_against_the_cell_oracle(self, cfg):
        # stand-still and frozen-tail queries against references of 130 and
        # 60 frames; a tail frozen before row 65 repeats while the band still
        # widens, so its reused cost row must hold columns past the band of
        # the row that computes it
        rng = np.random.default_rng(17)
        demos = generate_demo_set("leap", SimParams(), rng, n_trajectories=3)
        refs = [demos[0], demos[1][:60]]
        moving = demos[2] + 0.05 * rng.normal(size=demos[2].shape)
        queries = [stand_still_rollout(moving[0], 130)]
        for start in (1, 20, 100):
            q = moving.copy()
            q[start:] = q[start]
            queries.append(q)
        queries.append(queries[2][:70])
        want = {(a, b): cell_dtw(q, r, cfg)
                for a, q in enumerate(queries) for b, r in enumerate(refs)}
        for a, q in enumerate(queries):
            for b, r in enumerate(refs):
                assert dtw_distance(q, r, cfg) == want[a, b]
        # in one batch a row is reused only where every query repeats: from
        # row 21 for the first three queries, from row 101 for all five
        for batch in ([0], [0, 1, 2], [0, 1, 2, 3, 4]):
            got = dtw_distances([queries[a] for a in batch], refs, cfg)
            for i, a in enumerate(batch):
                for b in range(len(refs)):
                    assert got[i, b] == want[a, b][0]


class TestCellOracle:
    @pytest.mark.parametrize("cfg", cfgs(), ids=lambda c: f"{c.step_pattern}-open{c.open_end}")
    def test_ties_take_the_oracle_path(self, cfg):
        # small-integer sequences make equal accumulated costs common, so the
        # backtrack's order among equal predecessors is exercised
        rng = np.random.default_rng(61)
        raised = 0
        for _ in range(600):
            q = rng.integers(0, 3, size=(rng.integers(1, 12), 1)).astype(float)
            r = rng.integers(0, 3, size=(rng.integers(1, 12), 1)).astype(float)
            try:
                want = cell_dtw(q, r, cfg)
            except ValueError as e:
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    dtw_distance(q, r, cfg)
                raised += 1
                continue
            assert dtw_distance(q, r, cfg) == want
        closed_asymmetric = cfg == DtwConfig("mori_asymmetric", False)
        assert (raised > 0) == closed_asymmetric


class TestProperties:
    def test_asymmetry_counterexample_exists(self):
        # the asymmetric pattern is direction-dependent; exhibit a pair
        cfg = DtwConfig("mori_asymmetric", False)
        rng = np.random.default_rng(21)
        found = False
        for _ in range(200):
            a = rng.normal(size=(4, 1))
            b = rng.normal(size=(4, 1))
            dab, _ = dtw_distance(a, b, cfg)
            dba, _ = dtw_distance(b, a, cfg)
            if abs(dab - dba) > 1e-6:
                found = True
                break
        assert found

    def test_open_end_monotone_in_query_length(self):
        # appending a query element never decreases the open-end distance
        # under the per-query-step cost convention
        cfg = DtwConfig("mori_asymmetric", True)
        rng = np.random.default_rng(31)
        for _ in range(100):
            ref = rng.normal(size=(6, 2))
            query = rng.normal(size=(7, 2))
            dists = []
            for k in range(1, 8):
                d, _ = dtw_distance(query[:k], ref, cfg)
                dists.append(d)
            assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_perturbation_vanishes_linearly(self):
        rng = np.random.default_rng(41)
        base = rng.normal(size=(6, 3))
        for cfg in cfgs():
            prev = None
            for eps in (1e-2, 1e-4, 1e-6):
                noisy = base + eps * rng.normal(size=base.shape)
                d, _ = dtw_distance(noisy, base, cfg)
                assert d <= 10 * eps * base.shape[0]
                prev = d

    def test_time_shift_absorbed_by_open_end(self):
        # a truncated query matches the prefix of its reference at zero cost
        ref = np.linspace(0, 1, 10)[:, None]
        query = ref[:6]
        d_open, _ = dtw_distance(query, ref, DtwConfig("mori_asymmetric", True))
        d_closed, _ = dtw_distance(query, ref, DtwConfig("mori_asymmetric", False))
        assert d_open == pytest.approx(0.0, abs=1e-12)
        assert d_closed > d_open


class TestEvaluation:
    def _dataset(self):
        rng = np.random.default_rng(0)
        trajs = []
        for _ in range(4):
            pitch = rng.normal(scale=0.1, size=20)
            trajs.append(np.column_stack([
                rng.normal(size=20), rng.normal(size=20), rng.normal(size=20),
                -np.sin(pitch), -np.cos(pitch), rng.uniform(0.2, 0.5, 20)]))
        return ReferenceDataset(trajectories=trajs, dt=0.02)

    def test_scripted_replay_of_reference_scores_zero(self):
        ds = self._dataset()
        replays = [ds.trajectories[0]] * 3
        report = DtwReport.of(dtw_distances(replays, ds.trajectories[:1],
                                            DtwConfig()))
        assert report.mean == pytest.approx(0.0, abs=1e-12)

    def test_pair_matrix_shape(self):
        ds = self._dataset()
        rng = np.random.default_rng(1)
        rollouts = [rng.normal(size=(20, 6)) for _ in range(5)]
        report = DtwReport.of(dtw_distances(rollouts, ds.trajectories,
                                            DtwConfig()))
        assert report.distances.shape == (5, 4)
        assert report.mean == pytest.approx(report.distances.mean())

    def test_stand_still_positive_against_moving_refs(self):
        ds = self._dataset()
        frame = np.array([0, 0, 0, 0, -1, 0.28])
        still = stand_still_rollout(frame, 20)
        report = DtwReport.of(dtw_distances([still], ds.trajectories,
                                            DtwConfig()))
        assert report.mean > 0.0

    def test_rejects_zero_rollouts(self):
        with pytest.raises(ValueError, match="at least one query"):
            dtw_distances([], self._dataset().trajectories, DtwConfig())

"""Dynamic time warping between observation sequences.

Two step patterns are provided:

* ``symmetric1``: steps (1,1), (1,0), (0,1), unit weight on the landed cell.
* ``mori_asymmetric``: the early-recognition asymmetric pattern. The query
  index advances by exactly one per step while the reference index advances
  by 0, 1 or 2, each step paying the landed cell's cost once. Every query
  frame is matched exactly once, reference frames may be skipped, and the
  accumulated cost is normalizable by the query length (the raw accumulated
  cost is what ``dtw_distance`` returns).

Open-end matching lets the path finish at any reference index, absorbing the
time shift between a rollout and a demonstration. A brute-force path
enumerator over the same step sets serves as the correctness oracle.

``dtw_distance`` scores one pair and backtracks its alignment;
``dtw_distances`` scores every (query, reference) pair of two lists at once,
with the same arithmetic, and returns distances only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEP_PATTERNS = ("symmetric1", "mori_asymmetric")

_INF = float("inf")


@dataclass
class DtwConfig:
    step_pattern: str = "mori_asymmetric"
    open_end: bool = True

    def validate(self) -> list:
        if self.step_pattern not in STEP_PATTERNS:
            return [f"dtw.step_pattern must be one of {STEP_PATTERNS}, "
                    f"got {self.step_pattern!r}"]
        return []


def _as_sequence(seq) -> np.ndarray:
    a = np.asarray(seq, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[0] == 0:
        raise ValueError("sequences must be non-empty")
    return a


def _check_dims(q: np.ndarray, r: np.ndarray) -> None:
    if q.shape[1] != r.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: query {q.shape[1]} vs reference {r.shape[1]}")


def local_cost(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """(n, m) Euclidean distances between every query and reference frame."""
    q = _as_sequence(query)
    r = _as_sequence(reference)
    _check_dims(q, r)
    diff = q[:, None, :] - r[None, :, :]
    # the sum over a 6-wide last axis adds left to right; dtw_distances
    # repeats that order feature by feature
    return np.sqrt((diff * diff).sum(axis=2))


def dtw_distance(query, reference, cfg: DtwConfig):
    """Minimum accumulated cost and the minimizing alignment.

    Returns (distance, alignment) where alignment is a list of
    (query_index, reference_index) pairs along the optimal path.
    """
    cost = local_cost(query, reference)
    n, m = cost.shape
    if cfg.step_pattern == "symmetric1":
        dist, path = _dtw_symmetric1(cost, cfg.open_end)
    elif cfg.step_pattern == "mori_asymmetric":
        dist, path = _dtw_asymmetric(cost, cfg.open_end)
    else:
        raise ValueError(f"unknown step pattern {cfg.step_pattern!r}")
    if not np.isfinite(dist):
        raise ValueError(
            f"no admissible alignment for lengths ({n}, {m}) under "
            f"{cfg.step_pattern} (sequences too short for the step constraints)")
    return dist, path


def _dtw_symmetric1(cost: np.ndarray, open_end: bool):
    n, m = cost.shape
    acc = np.full((n, m), _INF)
    acc[0, 0] = cost[0, 0]
    for j in range(1, m):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        for j in range(1, m):
            acc[i, j] = cost[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j],
                                         acc[i, j - 1])
    end_j = int(np.argmin(acc[n - 1])) if open_end else m - 1
    dist = float(acc[n - 1, end_j])
    # backtrack
    path = [(n - 1, end_j)]
    i, j = n - 1, end_j
    while (i, j) != (0, 0):
        candidates = []
        if i > 0 and j > 0:
            candidates.append((acc[i - 1, j - 1], (i - 1, j - 1)))
        if i > 0:
            candidates.append((acc[i - 1, j], (i - 1, j)))
        if j > 0:
            candidates.append((acc[i, j - 1], (i, j - 1)))
        _, (i, j) = min(candidates, key=lambda c: c[0])
        path.append((i, j))
    path.reverse()
    return dist, path


def _dtw_asymmetric(cost: np.ndarray, open_end: bool):
    n, m = cost.shape
    acc = np.full((n, m), _INF)
    came_from = np.full((n, m), -1, dtype=np.int64)
    acc[0, 0] = cost[0, 0]
    for i in range(1, n):
        for j in range(m):
            best = acc[i - 1, j]
            step = 0
            if j >= 1 and acc[i - 1, j - 1] < best:
                best = acc[i - 1, j - 1]
                step = 1
            if j >= 2 and acc[i - 1, j - 2] < best:
                best = acc[i - 1, j - 2]
                step = 2
            if best < _INF:
                acc[i, j] = best + cost[i, j]
                came_from[i, j] = step
    end_j = int(np.argmin(acc[n - 1])) if open_end else m - 1
    dist = float(acc[n - 1, end_j])
    if not np.isfinite(dist):
        return dist, []
    path = [(n - 1, end_j)]
    i, j = n - 1, end_j
    while i > 0:
        j -= int(came_from[i, j])
        i -= 1
        path.append((i, j))
    path.reverse()
    return dist, path


def dtw_distances(queries, references, cfg: DtwConfig) -> np.ndarray:
    """Distance of every (query, reference) pair, shape (A, B); each equals
    ``dtw_distance(queries[a], references[b], cfg)[0]`` bit for bit.

    The accumulated-cost recurrences read only the previous query row, so the
    loop runs over query rows and each row is computed for all pairs and all
    reference indices at once; only one row of local costs is held. Sequences
    of unequal length are padded on the right: a padded reference index costs
    +inf, and since every step moves right or stays, no admissible path
    reaches a real index through one. A query's distance is read at its own
    last row, a closed end at each reference's own last index.
    """
    if cfg.step_pattern not in STEP_PATTERNS:
        raise ValueError(f"unknown step pattern {cfg.step_pattern!r}")
    qs = [_as_sequence(q) for q in queries]
    rs = [_as_sequence(r) for r in references]
    if not qs or not rs:
        raise ValueError("need at least one query and one reference")
    for seq in qs[1:] + rs:
        _check_dims(qs[0], seq)
    q_len = np.array([q.shape[0] for q in qs])
    r_len = np.array([r.shape[0] for r in rs])
    A, B = len(qs), len(rs)
    n, m, d = int(q_len.max()), int(r_len.max()), qs[0].shape[1]

    # queries as (n, d, A) and references as (d, B, m): one feature of one
    # query row, or of every reference, is a contiguous block
    q_rows = np.zeros((n, d, A))
    for a, q in enumerate(qs):
        q_rows[:q.shape[0], :, a] = q
    r_feat = np.zeros((d, B, m))
    for b, r in enumerate(rs):
        r_feat[:, b, :r.shape[0]] = r.T
    padded = np.arange(m) >= r_len[:, None]          # (B, m)
    ragged = bool(padded.any())

    cost = np.empty((A, B, m))
    sq = np.empty((A, B, m))

    def cost_row(i):
        # the arithmetic of local_cost: squared differences summed feature
        # by feature from the left, then the square root
        np.subtract(q_rows[i, 0][:, None, None], r_feat[0], out=cost)
        np.multiply(cost, cost, out=cost)
        for k in range(1, d):
            np.subtract(q_rows[i, k][:, None, None], r_feat[k], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(cost, sq, out=cost)
        np.sqrt(cost, out=cost)
        if ragged:
            cost[:, padded] = _INF
        return cost

    final = np.empty((A, B, m))
    if cfg.step_pattern == "mori_asymmetric":
        acc = np.full((A, B, m), _INF)
        acc[..., 0] = cost_row(0)[..., 0]
        best = np.empty_like(acc)
        for i in range(n):
            if i > 0:
                best[..., 0] = acc[..., 0]
                np.minimum(acc[..., 1:], acc[..., :-1], out=best[..., 1:])
                np.minimum(best[..., 2:], acc[..., :-2], out=best[..., 2:])
                np.add(best, cost_row(i), out=acc)
            ends = q_len == i + 1
            final[ends] = acc[ends]
    else:
        acc = np.cumsum(cost_row(0), axis=2)
        diag_up = np.empty((A, B, m - 1))
        for i in range(n):
            if i > 0:
                np.minimum(acc[..., :-1], acc[..., 1:], out=diag_up)
                row = cost_row(i)
                acc[..., 0] += row[..., 0]
                for j in range(1, m):
                    acc[..., j] = row[..., j] + np.minimum(diag_up[..., j - 1],
                                                           acc[..., j - 1])
            ends = q_len == i + 1
            final[ends] = acc[ends]

    if cfg.open_end:
        dist = final.min(axis=2)
    else:
        dist = final[:, np.arange(B), r_len - 1]
    bad = np.argwhere(~np.isfinite(dist))
    if bad.size:
        a, b = bad[0]
        raise ValueError(
            f"no admissible alignment for lengths ({q_len[a]}, {r_len[b]}) under "
            f"{cfg.step_pattern} (sequences too short for the step constraints)")
    return dist


def dtw_brute_force(query, reference, cfg: DtwConfig) -> float:
    """Exhaustive minimum over all admissible step-pattern paths. Exponential:
    both sequences must have length <= 8."""
    cost = local_cost(query, reference)
    n, m = cost.shape
    if n > 8 or m > 8:
        raise ValueError("brute force limited to sequences of length <= 8")

    if cfg.step_pattern == "symmetric1":
        steps = ((1, 1), (1, 0), (0, 1))
    else:
        steps = ((1, 0), (1, 1), (1, 2))

    best = [_INF]

    def walk(i, j, total):
        if total >= best[0]:
            return
        if i == n - 1 and (cfg.open_end or j == m - 1):
            best[0] = total
            # symmetric paths may still extend along the reference axis when
            # the end is closed; handled by continuing below
        for di, dj in steps:
            ni, nj = i + di, j + dj
            if ni < n and nj < m:
                walk(ni, nj, total + cost[ni, nj])

    walk(0, 0, cost[0, 0])
    return best[0]


@dataclass
class DtwReport:
    mean: float
    std: float
    distances: np.ndarray  # (n_rollouts, n_references)

    @classmethod
    def of(cls, distances: np.ndarray) -> "DtwReport":
        return cls(mean=float(distances.mean()), std=float(distances.std()),
                   distances=distances)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std,
                "distances": self.distances.tolist()}


def evaluate_policy_dtw(rollout_fn, dataset, n_rollouts: int, cfg: DtwConfig,
                        rng: np.random.Generator) -> DtwReport:
    """Score ``n_rollouts`` observation rollouts against every reference
    trajectory; every rollout x reference pair contributes one distance.

    ``rollout_fn(rng) -> (T, 6) array`` supplies the policy side, which keeps
    this metric independent of how rollouts are produced (simulated policy,
    scripted replay, or a stand-still baseline).
    """
    if n_rollouts <= 0:
        raise ValueError("n_rollouts must be positive")
    rollouts = [rollout_fn(rng) for _ in range(n_rollouts)]
    return DtwReport.of(dtw_distances(rollouts, dataset.trajectories, cfg))


def stand_still_rollout(obs_frame: np.ndarray, length: int) -> np.ndarray:
    """The motionless baseline: one observation frame repeated."""
    return np.tile(np.asarray(obs_frame, dtype=np.float64)[None, :], (length, 1))

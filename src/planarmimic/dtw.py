"""Dynamic time warping between observation sequences.

The step pattern is ``mori_asymmetric``, the early-recognition asymmetric
pattern. The query index advances by exactly one per step while the
reference index advances by 0, 1 or 2, each step paying the landed cell's
cost once. Every query frame is matched exactly once, reference frames may be
skipped, and the accumulated cost is normalizable by the query length (the
raw accumulated cost is what ``dtw_distance`` returns).

Open-end matching lets the path finish at any reference index, absorbing the
time shift between a rollout and a demonstration. A brute-force path
enumerator over the same step sets serves as the correctness oracle.

There is one accumulated-cost recurrence, ``_accumulated_rows``: it runs
over query rows, each for every (query, reference) pair at once.
``dtw_distances`` reads every pair's distance off it, and ``dtw_distance``
keeps one pair's rows to backtrack its alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEP_PATTERNS = ("mori_asymmetric",)
# each pattern's steps as (query, reference) index advances, in the order an
# alignment's backtrack prefers them among equal predecessors
STEPS = {"mori_asymmetric": ((1, 0), (1, 1), (1, 2))}

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
    (query_index, reference_index) pairs along the optimal path. The
    accumulated costs are ``dtw_distances``' recurrence for this one pair;
    the path steps back from its end to the first minimal predecessor, in
    the order ``STEPS`` lists the pattern's steps.
    """
    q, r = _as_sequence(query), _as_sequence(reference)
    _check_dims(q, r)
    if cfg.step_pattern not in STEP_PATTERNS:
        raise ValueError(f"unknown step pattern {cfg.step_pattern!r}")
    n, m = q.shape[0], r.shape[0]
    acc = np.empty((n, m))
    for i, row in enumerate(_accumulated_rows([q], [r])):
        acc[i] = row[0, 0]
    end_j = int(np.argmin(acc[n - 1])) if cfg.open_end else m - 1
    dist = float(acc[n - 1, end_j])
    if not np.isfinite(dist):
        raise ValueError(
            f"no admissible alignment for lengths ({n}, {m}) under "
            f"{cfg.step_pattern} (sequences too short for the step constraints)")
    steps = STEPS[cfg.step_pattern]
    path = [(n - 1, end_j)]
    i, j = n - 1, end_j
    while (i, j) != (0, 0):
        i, j = min(((i - di, j - dj) for di, dj in steps if di <= i and dj <= j),
                   key=lambda cell: acc[cell])
        path.append((i, j))
    path.reverse()
    return dist, path


def _accumulated_rows(qs: list, rs: list):
    """Yield the accumulated-cost row of every query index in turn, (A, B, m)
    for every (query, reference) pair and reference index at once. The same
    array is yielded each time, updated in place.

    The recurrence reads only the previous query row, and only one row of
    local costs is held. Sequences of unequal length are padded on the
    right: a padded reference index costs +inf, and since every step moves
    right or stays, no admissible path reaches a real index through one.
    """
    r_len = np.array([r.shape[0] for r in rs])
    A, B = len(qs), len(rs)
    n, m, d = max(q.shape[0] for q in qs), int(r_len.max()), qs[0].shape[1]

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

    acc = np.full((A, B, m), _INF)
    acc[..., 0] = cost_row(0)[..., 0]
    best = np.empty_like(acc)
    for i in range(n):
        if i > 0:
            best[..., 0] = acc[..., 0]
            np.minimum(acc[..., 1:], acc[..., :-1], out=best[..., 1:])
            np.minimum(best[..., 2:], acc[..., :-2], out=best[..., 2:])
            np.add(best, cost_row(i), out=acc)
        yield acc


def dtw_distances(queries, references, cfg: DtwConfig) -> np.ndarray:
    """Distance of every (query, reference) pair, shape (A, B); each equals
    ``dtw_distance(queries[a], references[b], cfg)[0]`` bit for bit.

    The loop runs over query rows of ``_accumulated_rows``, each computed for
    all pairs and all reference indices at once. A query's distance is read
    at its own last row, a closed end at each reference's own last index.
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

    final = np.empty((len(qs), len(rs), int(r_len.max())))
    for i, acc in enumerate(_accumulated_rows(qs, rs)):
        ends = q_len == i + 1
        final[ends] = acc[ends]

    if cfg.open_end:
        dist = final.min(axis=2)
    else:
        dist = final[:, np.arange(len(rs)), r_len - 1]
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

    steps = STEPS[cfg.step_pattern]
    best = [_INF]

    def walk(i, j, total):
        if total >= best[0]:
            return
        if i == n - 1 and (cfg.open_end or j == m - 1):
            best[0] = total
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


def stand_still_rollout(obs_frame: np.ndarray, length: int) -> np.ndarray:
    """The motionless baseline: one observation frame repeated."""
    return np.tile(np.asarray(obs_frame, dtype=np.float64)[None, :], (length, 1))

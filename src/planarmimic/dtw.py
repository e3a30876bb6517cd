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

Layout: a row of local or accumulated costs is (A, m, B), query by
reference index by reference, and an accumulated row sits behind two +inf
pad cells ahead of reference index 0, in an (A, m + 2, B) array. A row's
recurrence is then three calls on contiguous shifted blocks of the row
before: two ``np.minimum`` and one ``np.add``.

Band: the reference index advances by at most 2 a query step, so cell
(i, j) cannot be reached from (0, 0) when j > 2 i (the slope-2 edge of
Itakura's parallelogram). Row i runs the recurrence only on reference
indices below ``min(m, 2 i + 1)``, and computes no cost past the band of
the last row that reads it; the cells past the band are never written and
stay +inf, which the full recurrence gives them on finite costs. A
130 x 130 pair has 12,675 of its 16,900 cells in the band.

Reuse: a query row equal to the one before it in every query has the same
local costs, so a run of such rows shares one cost row. While the band
still widens, the rows of the run need ever more of its columns, so the
run's first row computes it as wide as the band of the run's last row,
once; widening it row by row would cost a whole row's calls for every two
columns. The stand-still baseline is one frame repeated, so 129 of its 130
leap query rows reuse a cost row; in perfbench's leap eval of a fresh
policy none of the rollouts' rows did.
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
        acc[i] = row[0, :, 0]
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
    """Yield the accumulated-cost row of every query index in turn, (A, m, B)
    for every query, reference index and reference at once (see the module
    docstring for the layout, the band and the reused cost rows): a view of
    one of two arrays written in turn, so a row holds until the one after
    next is computed.

    A query row is repeated when it equals the previous one in every query
    (``==``, so a NaN never matches, and -0 matches +0, whose squared
    differences are equal). Sequences of unequal length are padded on the
    right: a padded reference index costs +inf, and since every step moves
    right or stays, no admissible path reaches a real index through one.
    """
    r_len = np.array([r.shape[0] for r in rs])
    A, B = len(qs), len(rs)
    n, m, d = max(q.shape[0] for q in qs), int(r_len.max()), qs[0].shape[1]

    # queries as (n, d, A, 1, 1) and references as (d, m, B): one feature of
    # one query row meets a contiguous (k, B) block of every reference
    q_rows = np.zeros((n, d, A, 1, 1))
    for a, q in enumerate(qs):
        q_rows[:q.shape[0], :, a, 0, 0] = q
    r_feat = np.zeros((d, m, B))
    for b, r in enumerate(rs):
        r_feat[:, :r.shape[0], b] = r.T
    padded = np.arange(m)[:, None] >= r_len          # (m, B)
    ragged = bool(padded.any())
    repeated = np.zeros(n, dtype=bool)
    repeated[1:] = (q_rows[1:] == q_rows[:-1]).reshape(n - 1, d * A).all(axis=1)

    cost = np.empty((A, m, B))
    sq = np.empty((A, m, B))

    def cost_cols(i, hi):
        # the arithmetic of local_cost on reference indices below hi: squared
        # differences summed feature by feature from the left, then the
        # square root
        c, s = cost[:, :hi], sq[:, :hi]
        np.subtract(q_rows[i, 0], r_feat[0, :hi], out=c)
        np.multiply(c, c, out=c)
        for k in range(1, d):
            np.subtract(q_rows[i, k], r_feat[k, :hi], out=s)
            np.multiply(s, s, out=s)
            np.add(c, s, out=c)
        np.sqrt(c, out=c)
        if ragged:
            c[:, padded[:hi]] = _INF

    # the first row of each run of repeated rows and its cost row's width,
    # the band of the run's last row
    starts = np.flatnonzero(~repeated)
    ends = np.append(starts[1:], n) - 1
    widths = dict(zip(starts.tolist(), np.minimum(m, 2 * ends + 1).tolist()))

    acc, prev = np.full((2, A, m + 2, B), _INF)
    cost_cols(0, widths[0])
    acc[:, 2] = cost[:, 0]
    yield acc[:, 2:]
    for i in range(1, n):
        if i in widths:
            cost_cols(i, widths[i])
        k = min(m, 2 * i + 1)
        prev, acc = acc, prev
        # cell j takes the least of cells j, j - 1 and j - 2 of the row
        # before, in that order, then adds its cost
        band = acc[:, 2:k + 2]
        np.minimum(prev[:, 2:k + 2], prev[:, 1:k + 1], out=band)
        np.minimum(band, prev[:, :k], out=band)
        np.add(band, cost[:, :k], out=band)
        yield acc[:, 2:]


def dtw_distances(queries, references, cfg: DtwConfig) -> np.ndarray:
    """Distance of every (query, reference) pair, shape (A, B); each equals
    ``dtw_distance(queries[a], references[b], cfg)[0]`` bit for bit.

    The loop runs over query rows of ``_accumulated_rows``, each computed for
    all pairs at once. A query's distance is read at its own last row, so
    only rows where some query ends are kept; an open end is the least cell
    over the reference indices, a closed end the cell at each reference's
    own last index.
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

    final = np.empty((len(qs), int(r_len.max()), len(rs)))
    ends = {i: q_len == i + 1 for i in np.unique(q_len - 1).tolist()}
    for i, acc in enumerate(_accumulated_rows(qs, rs)):
        if i in ends:
            final[ends[i]] = acc[ends[i]]

    if cfg.open_end:
        dist = final.min(axis=1)
    else:
        dist = final[:, r_len - 1, np.arange(len(rs))]
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

"""Correctness checks the benchmark applies to the program's outputs.

The DTW oracle here is deliberately a plain Python loop, independent of
``planarmimic.dtw``, so a faster DTW inside the program is still checked
against arithmetic it cannot share.
"""

from __future__ import annotations

import hashlib
import json
import math

# Record keys that are finite for every iteration of the seed commit's
# fixed-seed runs. ``episode_length_mean`` is None when no episode ended, and
# ``kl`` is None only when PPO aborts, which is counted on its own.
FINITE_KEYS = ("reward_mean", "imitation_mean", "regularization_mean",
               "termination_rate", "disc_loss", "disc_main", "disc_gp",
               "score_mean_policy", "score_mean_ref", "kl", "lr")

STAND_STILL_TOL = 1e-9


def record_failed(record: dict) -> bool:
    """True when a training record shows a failed iteration."""
    if record.get("ppo_aborted"):
        return True
    for key in FINITE_KEYS:
        value = record.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return True
    return False


def mori_open_end_distance(query, reference) -> float:
    """Mori asymmetric DTW with an open end, as plain loops: each query frame
    advances by one while the reference advances by 0, 1 or 2, and the path
    may end at any reference frame."""
    q = [[float(v) for v in row] for row in query]
    r = [[float(v) for v in row] for row in reference]
    inf = math.inf
    prev = None
    for i, qi in enumerate(q):
        cost = [math.sqrt(sum((a - b) * (a - b) for a, b in zip(qi, rj)))
                for rj in r]
        if prev is None:
            row = [cost[0]] + [inf] * (len(r) - 1)
        else:
            row = []
            for j, c in enumerate(cost):
                best = prev[j]
                if j >= 1 and prev[j - 1] < best:
                    best = prev[j - 1]
                if j >= 2 and prev[j - 2] < best:
                    best = prev[j - 2]
                row.append(best + c if best < inf else inf)
        prev = row
    return min(prev)


def eval_failures(distances, expected_shape, still, still_expected) -> int:
    """Failed (rollout, reference) distances of one evaluation, plus
    stand-still distances that disagree with the oracle.

    A matrix of the wrong shape fails every distance it should hold.
    """
    failed = 0
    if tuple(distances.shape) != tuple(expected_shape):
        failed += expected_shape[0] * expected_shape[1]
    else:
        failed += sum(1 for d in distances.ravel() if not math.isfinite(d))
    row = list(still.ravel())
    if len(row) != len(still_expected):
        return failed + len(still_expected)
    for got, want in zip(row, still_expected):
        if not (math.isfinite(got) and abs(got - want) <= STAND_STILL_TOL):
            failed += 1
    return failed


def digest_records(records) -> str:
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]

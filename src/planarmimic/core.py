"""Core domain types: the base-only observation map, the rolling frame
buffer of a vectorized rollout, and the reference dataset, one frame array
checked once when it is made.

The observation is deliberately partial: it carries only what can be measured
on a hand-held robot base (body-frame velocities, attitude via the projected
gravity direction, and height). Joint information never enters it.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from pathlib import Path

import numpy as np

# Feature order of a flattened observation. This order is load-bearing: it is
# the CSV column order (after t) and the per-frame layout of window vectors.
OBS_FIELDS = ("vx", "vz", "pitch_rate", "gx", "gz", "height")
OBS_DIM = len(OBS_FIELDS)

GRAVITY_UNIT_TOL = 1e-9
# Loader accepts files with >= 9 significant digits; unit-norm drift from
# decimal truncation can slightly exceed GRAVITY_UNIT_TOL, so the ingestion
# tolerance is looser and offending rows are renormalized (see loader).
GRAVITY_LOAD_TOL = 1e-6

CSV_HEADER = "t,vx,vz,pitch_rate,gx,gz,height"
_TRAJ_SEPARATOR = re.compile(r"^#\s*trajectory\s+(\d+)\s*$")


def phi_extract_arrays(base_vx: np.ndarray, base_vz: np.ndarray,
                       pitch: np.ndarray, pitch_rate: np.ndarray,
                       base_z: np.ndarray) -> np.ndarray:
    """Project per-env base states onto the base-only observation space.

    World-frame base velocity is rotated into the body frame (rotation by
    -pitch); the world gravity direction (0, -1) is expressed in the body
    frame; height is the base height. Returns (n, 6) in ``OBS_FIELDS`` order.
    """
    c = np.cos(pitch)
    s = np.sin(pitch)
    out = np.empty((base_vx.shape[0], OBS_DIM), dtype=np.float64)
    out[:, 0] = c * base_vx + s * base_vz
    out[:, 1] = -s * base_vx + c * base_vz
    out[:, 2] = pitch_rate
    out[:, 3] = -s
    out[:, 4] = -c
    out[:, 5] = base_z
    return out


class BatchWindowBuffer:
    """The last L frames of every row of a vectorized environment, oldest
    first, as one (E, L, F) array ``buf``. Readers take views of it with
    ``last``.

    ``reset_rows`` fills all L slots of the masked rows with their first
    frame, so a full window is available from the very first step of an
    episode.
    """

    def __init__(self, num_envs: int, length: int, feat_dim: int):
        self.buf = np.zeros((num_envs, length, feat_dim), dtype=np.float64)

    def reset_rows(self, mask: np.ndarray, frames: np.ndarray) -> None:
        self.buf[mask] = frames[mask, None, :]

    def push(self, frames: np.ndarray) -> None:
        self.buf[:, :-1] = self.buf[:, 1:]
        self.buf[:, -1] = frames

    def last(self, n: int, cols: int | None = None) -> np.ndarray:
        """A view of every row's last ``n`` frames, oldest first, cut to
        their first ``cols`` columns (all by default): (E, n, cols)."""
        return self.buf[:, -n:, :cols]


class ReferenceDataset:
    """Demonstration trajectories in observation space, sampled every ``dt``,
    as one (N, 6) array ``frames``: every trajectory's frames, end to end,
    with ``lengths`` their frame counts. ``trajectories`` is a tuple of row
    views of ``frames``, which is read-only.

    It is checked once, when it is made: at least one trajectory, each a
    (T, 6) array of at least one frame, finite, with a unit gravity vector
    within ``GRAVITY_UNIT_TOL``. A horizon is checked where windows are cut,
    in ``window_offsets``.
    """

    def __init__(self, trajectories, dt: float):
        if not len(trajectories):
            raise ValueError("no trajectories")
        for k, traj in enumerate(trajectories):
            if traj.ndim != 2 or traj.shape[1] != OBS_DIM:
                raise ValueError(f"trajectory {k}: expected (T, {OBS_DIM}) array")
            if traj.shape[0] == 0:
                raise ValueError(f"trajectory {k} has no frames")
            if not np.all(np.isfinite(traj)):
                raise ValueError(f"trajectory {k} contains non-finite values")
            worst = float(np.abs(np.hypot(traj[:, 3], traj[:, 4]) - 1.0).max())
            if worst > GRAVITY_UNIT_TOL:
                raise ValueError(
                    f"trajectory {k}: non-unit gravity vector (|norm-1| = {worst:.3e})")
        self.dt = dt
        self.lengths = np.array([t.shape[0] for t in trajectories])
        self.frames = np.concatenate(trajectories, dtype=np.float64)
        self.frames.flags.writeable = False
        self.trajectories = tuple(np.split(self.frames, np.cumsum(self.lengths)[:-1]))
        self._offsets = {}

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    def window_offsets(self, horizon: int) -> np.ndarray:
        """The cumulative counts of windows of ``horizon`` frames, trajectory
        by trajectory, from 0. Made once per horizon; raises unless every
        trajectory holds a window."""
        if horizon not in self._offsets:
            short = np.flatnonzero(self.lengths < horizon)
            if short.size:
                raise ValueError(f"trajectory {short[0]} shorter than horizon "
                                 f"({self.lengths[short[0]]} < {horizon})")
            self._offsets[horizon] = np.concatenate(
                [[0], np.cumsum(self.lengths - horizon + 1)])
        return self._offsets[horizon]


def format_float(x: float) -> str:
    """Decimal form that round-trips float64 bit-exactly (17 significant digits)."""
    return format(float(x), ".17g")


def _write_atomic(path, content) -> None:
    """Replace ``path`` in one step with ``content``: bytes, or a function
    that writes to the binary file it is given. It goes to a temp file in
    the same directory, made with its parents if need be, which is flushed
    to disk and renamed over ``path``. A crash mid-write, or an exception
    from ``content``, leaves the previous file intact and removes the temp
    file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            if callable(content):
                content(f)
            else:
                f.write(content)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, each a sequence of cells, as
    ``csv`` module lines (ended by CR LF) to ``path`` in one step. A float
    cell is written as its ``repr``, which round-trips it."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)
    _write_atomic(path, text.getvalue().encode())


def save_reference_csv(path, trajectories, dt: float, multi: bool = False) -> list:
    """Write trajectories in the reference CSV format.

    With ``multi`` a single file is written, trajectories separated by
    ``# trajectory <n>`` comment lines; otherwise one numbered file per
    trajectory is written into the directory ``path``. Returns written paths.
    """
    path = Path(path)

    def text(traj):
        rows = (",".join(map(format_float, (i * dt, *row))) for i, row in enumerate(traj))
        return "\n".join([CSV_HEADER, *rows]) + "\n"

    if multi:
        files = {path: "".join(f"# trajectory {n}\n" + text(traj)
                               for n, traj in enumerate(trajectories))}
    else:
        files = {path / f"trajectory_{n:02d}.csv": text(traj)
                 for n, traj in enumerate(trajectories)}
    for f, content in files.items():
        _write_atomic(f, content.encode())
    return list(files)


def _parse_csv_text(text: str, origin: str) -> list:
    """Parse one CSV file into a list of (T, 6) arrays (one per trajectory)."""
    groups = [[]]
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if _TRAJ_SEPARATOR.match(line):
            if groups[-1]:
                groups.append([])
            header_seen = False
            continue
        if line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValueError(
                    f"{origin}:{lineno}: malformed header {line!r}, expected {CSV_HEADER!r}")
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != OBS_DIM + 1:
            raise ValueError(f"{origin}:{lineno}: expected {OBS_DIM + 1} columns, got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: non-numeric cell") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{origin}:{lineno}: non-finite value")
        groups[-1].append(values)
    return [np.array(g, dtype=np.float64) for g in groups if g]


def _check_time_column(raw: np.ndarray, origin: str) -> float:
    t = raw[:, 0]
    if t.shape[0] < 2:
        raise ValueError(f"{origin}: trajectory needs at least 2 rows to imply dt")
    dt = float(t[1] - t[0])
    if dt <= 0:
        raise ValueError(f"{origin}: non-increasing time column")
    steps = np.diff(t)
    if np.abs(steps - dt).max() > 1e-9:
        raise ValueError(f"{origin}: non-uniform time step (dt must be uniform within 1e-9)")
    return dt


def load_reference_dataset(path, horizon: int) -> ReferenceDataset:
    """Load a reference dataset from a CSV file or a directory of CSV files.

    Gravity columns are validated to be unit vectors within ``GRAVITY_LOAD_TOL``
    and renormalized when off by more than 1e-12 (so files written with fewer
    significant digits still satisfy the dataset invariant; files written by
    ``save_reference_csv`` are reproduced bit-exactly).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"reference path not found: {path}")
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise ValueError(f"no trajectories (no .csv files in {path})")
    else:
        files = [path]

    trajectories = []
    dt = None
    for f in files:
        for raw in _parse_csv_text(f.read_text(), str(f)):
            file_dt = _check_time_column(raw, str(f))
            if dt is None:
                dt = file_dt
            elif abs(file_dt - dt) > 1e-9:
                raise ValueError(f"{f}: dt {file_dt} differs from dataset dt {dt}")
            traj = raw[:, 1:]
            norms = np.hypot(traj[:, 3], traj[:, 4])
            worst = float(np.abs(norms - 1.0).max())
            if worst > GRAVITY_LOAD_TOL:
                raise ValueError(f"{f}: non-unit gravity vector (|norm-1| = {worst:.3e})")
            fix = np.abs(norms - 1.0) > 1e-12
            traj[fix, 3:5] /= norms[fix, None]
            trajectories.append(traj)

    dataset = ReferenceDataset(trajectories, dt)
    dataset.window_offsets(horizon)
    return dataset


def sample_reference_windows(dataset: ReferenceDataset, batch: int, horizon: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Sample ``batch`` windows uniformly over all valid (trajectory, start)
    pairs, with replacement. Returns an array of shape (batch, H, 6)."""
    if batch <= 0:
        raise ValueError("batch must be positive")
    offsets = dataset.window_offsets(horizon)
    flat = rng.integers(0, int(offsets[-1]), size=batch)
    traj_idx = np.searchsorted(offsets, flat, side="right") - 1
    # each trajectory has horizon - 1 more frames than window starts, so
    # window ``flat`` of trajectory k starts at frame row flat + k * (horizon - 1)
    first_rows = flat + traj_idx * (horizon - 1)
    return dataset.frames[first_rows[:, None] + np.arange(horizon)]

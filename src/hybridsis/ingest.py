"""Loading and aligning daily player-count series for model fitting.

Input files are two-column CSVs, header `date,peak_players`, one row per
calendar day with an ISO-8601 date.  Counts are normalized to shares by a
user-supplied population scale N (the model works on fractions of a fixed
addressable population, which the data alone cannot reveal).  One sample per
day fixes the step size at h = 1.

A series must list every day: load_series rejects a missing day at its
line.  An optional centered 7-day moving average can tame weekday cycles; it
is off by default and flagged on the result when used.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Trajectory, UpdateSchedule, _check_population
from .simulate import _read_csv, _records

__all__ = [
    "RawSeries",
    "AlignedDataset",
    "load_series",
    "load_update_dates",
    "align",
]


@dataclass(frozen=True)
class RawSeries:
    """Daily counts as read from disk: counts[j] is the count on day start + j."""

    start: dt.date
    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.counts, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    def __len__(self) -> int:
        return self.counts.size


_SERIES_DTYPE = np.dtype([("date", "S11"), ("count", "i8")])
_I8_MAX = np.iinfo(np.int64).max
_LAST_DAY = np.datetime64(dt.date.max, "D")


def _parse_series(rows: np.ndarray) -> RawSeries | None:
    """The C-parsed body as a RawSeries, or None where the row loop must
    decide: a negative count, or a date column that is not exactly row 1's
    day and every day after it, each written YYYY-MM-DD.  Past 9999-12-31
    numpy writes years that date.fromisoformat rejects (10000-01-01)."""
    if rows.size < 2 or (rows["count"] < 0).any():
        return None
    try:
        start = dt.date.fromisoformat(rows["date"][0].decode())
    except ValueError:  # UnicodeDecodeError too
        return None
    days = np.datetime64(start, "D") + np.arange(rows.size)
    if days[-1] > _LAST_DAY or not np.array_equal(rows["date"], days.astype("S11")):
        return None
    return RawSeries(start, rows["count"])


def load_series(path: str | Path) -> RawSeries:
    """Read a `date,peak_players` CSV.  Rejects malformed rows, duplicate,
    out-of-order or missing days, and counts that are negative or beyond
    int64, naming the offending line.  The body is parsed in C, and a
    rejected file is re-read line by line."""

    def check_header(header):
        if header is None or [c.strip().lower() for c in header] != ["date", "peak_players"]:
            raise ValueError(f"{path}: expected header 'date,peak_players', got {header}")

    def row_loop(reader):
        start = None
        counts: list[int] = []
        for lineno, row in _records(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                day = dt.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad date {row[0]!r}: {exc}") from exc
            try:
                count = int(row[1].strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad count {row[1]!r}") from exc
            if count < 0:
                raise ValueError(f"{path}:{lineno}: negative count {count}")
            if count > _I8_MAX:
                raise ValueError(f"{path}:{lineno}: count {count} exceeds the int64 maximum")
            if start is None:
                start = day
            else:
                last = start + dt.timedelta(days=len(counts) - 1)
                if day == last:
                    raise ValueError(f"{path}:{lineno}: duplicate date {day}")
                if day < last:
                    raise ValueError(f"{path}:{lineno}: date {day} is out of order (after {last})")
                if (day - last).days > 1:
                    raise ValueError(
                        f"{path}:{lineno}: {(day - last).days - 1} missing day(s) between "
                        f"{last} and {day}; the series must list every day"
                    )
            counts.append(count)
        if len(counts) < 2:
            raise ValueError(f"{path}: need at least 2 daily rows, got {len(counts)}")
        return RawSeries(start, counts)

    return _read_csv(path, check_header, _SERIES_DTYPE, _parse_series, row_loop)


def load_update_dates(path: str | Path) -> tuple[dt.date, ...]:
    """Read release dates: either a JSON array of ISO date strings or a plain
    text file with one date per line."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"{path}: no dates found")
    if text.startswith("["):
        try:  # stripped text that starts with '[' and parses is a JSON array
            items = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    else:
        items = [line.strip() for line in text.splitlines() if line.strip()]
    dates = []
    for item in items:
        try:  # a JSON entry that is not a string is a TypeError
            dates.append(dt.date.fromisoformat(item))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad date {item!r}: {exc}") from exc
    for a, b in zip(dates, dates[1:]):
        if b <= a:
            raise ValueError(f"{path}: release dates must be strictly increasing")
    return tuple(dates)


def _smooth_weekly(counts: np.ndarray) -> np.ndarray:
    """Centered 7-day moving average, window shrinking near the edges: seven
    shifted adds over a zero-padded copy, in window order, over the number of
    days inside each window."""
    n = counts.size
    padded, inside = np.zeros(n + 6), np.zeros(n + 6)
    padded[3:-3], inside[3:-3] = counts, 1.0
    total, width = np.zeros(n), np.zeros(n)
    for k in range(7):  # day j - 3 + k of day j's window
        total += padded[k : k + n]
        width += inside[k : k + n]
    return total / width


@dataclass(frozen=True)
class AlignedDataset:
    """A fitting-ready window: share trajectory at h = 1 day, the release
    schedule in day offsets, and the population scale used to normalize."""

    trajectory: Trajectory
    schedule: UpdateSchedule
    population: int
    start_date: dt.date
    smoothed: bool = False


def align(
    series: RawSeries,
    update_dates: tuple[dt.date, ...] | list[dt.date],
    population: int,
    window: tuple[dt.date | None, dt.date | None] | None = None,
    *,
    smooth7: bool = False,
) -> AlignedDataset:
    """Window the series, map release dates to day offsets, normalize by N.

    The series lists every day from series.start (load_series checks it).
    Every release date must fall strictly inside the window: day 0 needs
    history before a release to estimate its jump, and a release on the last
    day has no interval after it.  Counts above the population scale, and a
    scale above 2**53, are rejected.
    """
    population = _check_population(population)

    first = series.start
    last = first + dt.timedelta(days=len(series) - 1)
    lo = first if window is None or window[0] is None else window[0]
    hi = last if window is None or window[1] is None else window[1]
    if lo < first or hi > last:
        raise ValueError(f"window [{lo}, {hi}] exceeds the data range [{first}, {last}]")
    if hi <= lo:
        raise ValueError(f"window [{lo}, {hi}] must span at least two days")
    i0 = (lo - first).days
    i1 = (hi - first).days
    counts = series.counts[i0 : i1 + 1]
    final_step = i1 - i0

    worst = int(counts.max())
    if worst > population:
        raise ValueError(
            f"count {worst} exceeds the population scale {population}; "
            "shares must lie in [0, 1]"
        )

    steps = []
    for d in update_dates:
        t = (d - lo).days
        if t < 1 or t >= final_step:
            raise ValueError(
                f"release {d} maps to day offset {t}, outside the usable "
                f"range 1..{final_step - 1} of window [{lo}, {hi}]"
            )
        steps.append(t)

    values = counts.astype(float)
    if smooth7:
        values = _smooth_weekly(values)
    x = values / population
    x.setflags(write=False)  # handed to the trajectory, which adopts it

    schedule = UpdateSchedule(update_steps=tuple(steps), final_step=final_step, step_size=1.0)
    traj = Trajectory(values=x, step_size=1.0, population=population)
    return AlignedDataset(
        trajectory=traj,
        schedule=schedule,
        population=population,
        start_date=lo,
        smoothed=smooth7,
    )

"""Loading and aligning daily player-count series for model fitting.

Input files are two-column CSVs, header `date,peak_players`, one row per
calendar day with an ISO-8601 date.  Counts are normalized to shares by a
user-supplied population scale N (the model works on fractions of a fixed
addressable population, which the data alone cannot reveal).  One sample per
day fixes the step size at h = 1.

Missing days are detected and reported; by default they are a hard error at
alignment time, and fill_gaps offers linear interpolation for callers who
accept it.  An optional centered 7-day moving average can tame weekday
cycles; it is off by default and flagged on the result when used.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Trajectory, UpdateSchedule
from .simulate import _read_csv

__all__ = [
    "RawSeries",
    "AlignedDataset",
    "load_series",
    "fill_gaps",
    "load_update_dates",
    "align",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RawSeries:
    """Daily counts as read from disk.  gaps lists every missing calendar
    day between the first and last date present."""

    dates: tuple[dt.date, ...]
    counts: np.ndarray
    gaps: tuple[dt.date, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.counts, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "gaps", tuple(self.gaps))
        if len(self.dates) != arr.size:
            raise ValueError("dates and counts must have equal length")

    def __len__(self) -> int:
        return len(self.dates)


# the one date form read from the C-parsed body: exactly YYYY-MM-DD (the 11th
# byte ends the field); numpy and date.fromisoformat differ on others (20240101)
_ISO_DAY = np.frombuffer(b"9999-99-99\0", np.uint8)
_SERIES_DTYPE = np.dtype([("date", "S11"), ("count", "i8")])
_I8_MAX = np.iinfo(np.int64).max


def _series(days: np.ndarray, counts) -> RawSeries:
    """RawSeries of increasing M8[D] days, every day missing between them a gap."""
    missing = np.diff(days).astype(np.int64) - 1
    first = np.repeat(np.cumsum(missing) - missing, missing)
    gaps = np.repeat(days[:-1], missing) + (np.arange(first.size) - first + 1)
    return RawSeries(dates=days.tolist(), counts=counts, gaps=gaps.tolist())


def _parse_series(rows: np.ndarray) -> RawSeries | None:
    """The C-parsed body as a RawSeries, or None where the row loop must
    decide.  Dates are assembled from their digits: numpy's string cast
    crashes on a bad date in a long array (numpy 2.4)."""
    chars = np.ascontiguousarray(rows["date"]).view(np.uint8).reshape(-1, _ISO_DAY.size)
    digit = _ISO_DAY == ord("9")
    form = (chars == _ISO_DAY) | (digit & (chars >= ord("0")) & (chars <= ord("9")))
    if rows.size < 2 or not form.all():
        return None
    ymd = chars[:, digit].astype(np.int64) - ord("0")
    y = ymd[:, :4] @ np.array([1000, 100, 10, 1])
    m = ymd[:, 4:6] @ np.array([10, 1])
    months = ((y - 1970) * 12 + m - 1).astype("M8[M]")
    days = months.astype("M8[D]") + (ymd[:, 6:] @ np.array([10, 1]) - 1)
    # a day 00 or past the month's end lands in another month
    real = (y >= 1) & (m >= 1) & (m <= 12) & (days.astype("M8[M]") == months)
    if not real.all() or (rows["count"] < 0).any() or (np.diff(days).astype(np.int64) < 1).any():
        return None
    return _series(days, rows["count"])


def load_series(path: str | Path) -> RawSeries:
    """Read a `date,peak_players` CSV.  Rejects malformed rows, duplicate or
    out-of-order dates, and counts that are negative or beyond int64, naming
    the offending line.  The body is parsed in C, and a rejected file is
    re-read line by line."""

    def check_header(header):
        if header is None or [c.strip().lower() for c in header] != ["date", "peak_players"]:
            raise ValueError(f"{path}: expected header 'date,peak_players', got {header}")

    def row_loop(reader):
        dates: list[dt.date] = []
        counts: list[int] = []
        for lineno, row in enumerate(reader, start=2):
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
            if dates:
                if day == dates[-1]:
                    raise ValueError(f"{path}:{lineno}: duplicate date {day}")
                if day < dates[-1]:
                    raise ValueError(
                        f"{path}:{lineno}: date {day} is out of order (after {dates[-1]})"
                    )
            dates.append(day)
            counts.append(count)
        if len(dates) < 2:
            raise ValueError(f"{path}: need at least 2 daily rows, got {len(dates)}")
        return _series(np.array(dates, "M8[D]"), np.asarray(counts))

    return _read_csv(path, check_header, _SERIES_DTYPE, _parse_series, row_loop)


def fill_gaps(series: RawSeries) -> RawSeries:
    """Fill missing days by linear interpolation between their neighbours.

    Returns a gap-free series on the full daily range.  Each filled gap is
    logged.  Counts are rounded back to integers.
    """
    if not series.gaps:
        return series
    first, last = series.dates[0], series.dates[-1]
    n_days = (last - first).days + 1
    all_days = [first + dt.timedelta(days=j) for j in range(n_days)]
    day_index = np.array([(d - first).days for d in series.dates], dtype=float)
    filled = np.interp(np.arange(n_days, dtype=float), day_index, series.counts.astype(float))
    counts = np.rint(filled).astype(np.int64)
    for d in series.gaps:
        logger.info("filled missing day %s with interpolated count %d", d, counts[(d - first).days])
    return RawSeries(dates=tuple(all_days), counts=counts, gaps=())


def load_update_dates(path: str | Path) -> tuple[dt.date, ...]:
    """Read release dates: either a JSON array of ISO dates or a plain text
    file with one date per line."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"{path}: no dates found")
    if text.startswith("["):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(raw, list):
            raise ValueError(f"{path}: expected a JSON array of dates")
        items = [str(v) for v in raw]
    else:
        items = [line.strip() for line in text.splitlines() if line.strip()]
    dates = []
    for item in items:
        try:
            dates.append(dt.date.fromisoformat(item))
        except ValueError as exc:
            raise ValueError(f"{path}: bad date {item!r}: {exc}") from exc
    for a, b in zip(dates, dates[1:]):
        if b <= a:
            raise ValueError(f"{path}: release dates must be strictly increasing")
    return tuple(dates)


def _smooth_weekly(counts: np.ndarray) -> np.ndarray:
    """Centered 7-day moving average, window shrinking near the edges."""
    x = counts.astype(float)
    out = np.empty_like(x)
    n = x.size
    for j in range(n):
        lo = max(0, j - 3)
        hi = min(n, j + 4)
        out[j] = x[lo:hi].mean()
    return out


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

    The series must be gap free (fill_gaps first, or supply complete data).
    Every release date must fall strictly inside the window: day 0 needs
    history before a release to estimate its jump, and a release on the last
    day has no interval after it.  Counts above the population scale are
    rejected.
    """
    if series.gaps:
        preview = ", ".join(str(d) for d in series.gaps[:5])
        raise ValueError(
            f"series has {len(series.gaps)} missing day(s) ({preview}...); "
            "fill gaps explicitly before aligning"
        )
    population = int(population)
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")

    lo = series.dates[0] if window is None or window[0] is None else window[0]
    hi = series.dates[-1] if window is None or window[1] is None else window[1]
    if lo < series.dates[0] or hi > series.dates[-1]:
        raise ValueError(
            f"window [{lo}, {hi}] exceeds the data range "
            f"[{series.dates[0]}, {series.dates[-1]}]"
        )
    if hi <= lo:
        raise ValueError(f"window [{lo}, {hi}] must span at least two days")
    i0 = (lo - series.dates[0]).days
    i1 = (hi - series.dates[0]).days
    counts = series.counts[i0 : i1 + 1]
    n_days = counts.size
    final_step = n_days - 1

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

    schedule = UpdateSchedule(update_steps=tuple(steps), final_step=final_step, step_size=1.0)
    traj = Trajectory(values=x, step_size=1.0, population=population)
    return AlignedDataset(
        trajectory=traj,
        schedule=schedule,
        population=population,
        start_date=lo,
        smoothed=smooth7,
    )

import csv
import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridsis.ingest
from hybridsis import (
    AlignedDataset,
    align,
    load_series,
    load_update_dates,
)
from hybridsis.ingest import RawSeries

from conftest import forbid_row_loop

START = dt.date(2024, 3, 1)


def write_csv(path, rows, header="date,peak_players"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def daily_rows(counts, start=START, skip=()):
    rows = []
    for j, c in enumerate(counts):
        day = start + dt.timedelta(days=j)
        if day in skip:
            continue
        rows.append(f"{day.isoformat()},{int(c)}")
    return rows


def test_load_series_contiguous(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(p, daily_rows([10, 20, 30]))
    series = load_series(p)
    assert series.start == START
    np.testing.assert_array_equal(series.counts, [10, 20, 30])
    assert len(series) == 3


def test_load_series_detects_gaps(tmp_path):
    # a missing day is rejected at the line of the day after it
    p = tmp_path / "s.csv"
    hole1 = START + dt.timedelta(days=1)
    hole2 = START + dt.timedelta(days=2)
    write_csv(p, daily_rows([10, 20, 30, 40, 50], skip={hole1, hole2}))
    with pytest.raises(ValueError) as info:
        load_series(p)
    assert str(info.value) == (
        f"{p}:3: 2 missing day(s) between 2024-03-01 and 2024-03-04; the series must list every day"
    )


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("day,players\n2024-03-01,10\n2024-03-02,20\n", "header"),
        ("date,peak_players\n2024-03-01,10,9\n", "2 columns"),
        ("date,peak_players\nnot-a-date,10\n2024-03-02,20\n", "bad date"),
        ("date,peak_players\n2024-03-01,many\n", "bad count"),
        ("date,peak_players\n2024-03-01,-5\n2024-03-02,20\n", "negative"),
        ("date,peak_players\n2024-03-01,10\n2024-03-01,20\n", "duplicate"),
        ("date,peak_players\n2024-03-02,10\n2024-03-01,20\n", "out of order"),
        ("date,peak_players\n2024-03-01,10\n", "at least 2"),
    ],
)
def test_load_series_rejects(tmp_path, content, fragment):
    p = tmp_path / "bad.csv"
    p.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=fragment):
        load_series(p)


def test_load_series_error_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,peak_players\n2024-03-01,10\n2024-03-02,oops\n")
    with pytest.raises(ValueError, match=":3:"):
        load_series(p)


# load_series outcomes recorded with the line-by-line reader that the C
# parser now sits in front of: (start, counts) as an ISO string and ints, or
# (exception type, message).
# "{path}" stands for the file's path.
H = b"date,peak_players\n"
SERIES_CORPUS = {
    "plain": (H + b"2024-03-01,10\n2024-03-02,20\n", ("2024-03-01", [10, 20])),
    "gap": (
        H + b"2024-03-01,10\n2024-03-04,40\n2024-03-05,50\n",
        (ValueError, "{path}:3: 2 missing day(s) between 2024-03-01 and 2024-03-04; "
                     "the series must list every day"),
    ),
    "upper_header_spaces": (
        b" Date , PEAK_PLAYERS \n2024-03-01,10\n2024-03-02,20\n",
        ("2024-03-01", [10, 20]),
    ),
    "wrong_header": (
        b"day,players\n2024-03-01,10\n2024-03-02,20\n",
        (ValueError, "{path}: expected header 'date,peak_players', got ['day', 'players']"),
    ),
    "empty_file": (b"", (ValueError, "{path}: expected header 'date,peak_players', got None")),
    "header_only": (H, (ValueError, "{path}: need at least 2 daily rows, got 0")),
    "single_row": (H + b"2024-03-01,10\n", (ValueError, "{path}: need at least 2 daily rows, got 1")),
    # date.fromisoformat reads these; numpy reads the first as year 20240301
    "basic_format_date": (
        H + b"20240301,10\n2024-03-02,20\n", ("2024-03-01", [10, 20])
    ),
    "week_date": (H + b"2024-W09-5,10\n2024-03-02,20\n", ("2024-03-01", [10, 20])),
    "ordinal_date": (
        H + b"2024-061,10\n2024-03-02,20\n",
        (ValueError, "{path}:2: bad date '2024-061': Invalid isoformat string: '2024-061'"),
    ),
    "datetime_suffix": (
        H + b"2024-03-01T00,10\n2024-03-02,20\n",
        (ValueError, "{path}:2: bad date '2024-03-01T00': Invalid isoformat string: '2024-03-01T00'"),
    ),
    "year_zero": (
        H + b"0000-12-31,10\n0001-01-01,20\n",
        (ValueError, "{path}:2: bad date '0000-12-31': year 0 is out of range"),
    ),
    # numpy writes the day after 9999-12-31 as this, so the C path must not accept it
    "year_10000": (
        H + b"9999-12-31,1\n10000-01-01,2\n",
        (ValueError, "{path}:3: bad date '10000-01-01': Invalid isoformat string: '10000-01-01'"),
    ),
    "invalid_day": (
        H + b"2024-02-29,10\n2024-02-30,20\n",
        (ValueError, "{path}:3: bad date '2024-02-30': day is out of range for month"),
    ),
    "unpadded_date": (
        H + b"2024-3-1,10\n2024-03-02,20\n",
        (ValueError, "{path}:2: bad date '2024-3-1': Invalid isoformat string: '2024-3-1'"),
    ),
    "whitespace_date": (
        H + b" 2024-03-01 ,10\n\t2024-03-02,20\n", ("2024-03-01", [10, 20])
    ),
    "whitespace_count": (
        H + b"2024-03-01, 10\n2024-03-02,20 \n", ("2024-03-01", [10, 20])
    ),
    "signed_count": (H + b"2024-03-01,+10\n2024-03-02,-0\n", ("2024-03-01", [10, 0])),
    "underscore_count": (
        H + b"2024-03-01,1_000\n2024-03-02,20\n", ("2024-03-01", [1000, 20])
    ),
    "float_count": (H + b"2024-03-01,10.0\n2024-03-02,20\n", (ValueError, "{path}:2: bad count '10.0'")),
    "crlf": (
        b"date,peak_players\r\n2024-03-01,10\r\n2024-03-02,20\r\n",
        ("2024-03-01", [10, 20]),
    ),
    "lone_cr": (
        b"date,peak_players\r2024-03-01,10\r2024-03-02,20\r",
        ("2024-03-01", [10, 20]),
    ),
    "blank_lines": (
        H + b"\n2024-03-01,10\n\n\n2024-03-02,20\n\n", ("2024-03-01", [10, 20])
    ),
    "whitespace_line": (
        H + b"2024-03-01,10\n   \n2024-03-02,20\n", ("2024-03-01", [10, 20])
    ),
    "quoted_fields": (
        H + b'"2024-03-01","10"\n2024-03-02,"20"\n', ("2024-03-01", [10, 20])
    ),
    "quoted_comma": (H + b'2024-03-01,"1,0"\n2024-03-02,20\n', (ValueError, "{path}:2: bad count '1,0'")),
    "three_columns": (
        H + b"2024-03-01,10,5\n2024-03-02,20\n", (ValueError, "{path}:2: expected 2 columns, got 3")
    ),
    "one_column": (H + b"2024-03-01,10\n2024-03-02\n", (ValueError, "{path}:3: expected 2 columns, got 1")),
    "bad_count": (H + b"2024-03-01,10\n2024-03-02,oops\n", (ValueError, "{path}:3: bad count 'oops'")),
    "negative_count": (H + b"2024-03-01,10\n2024-03-02,-5\n", (ValueError, "{path}:3: negative count -5")),
    "duplicate_date": (
        H + b"2024-03-01,10\n2024-03-02,20\n2024-03-02,30\n",
        (ValueError, "{path}:4: duplicate date 2024-03-02"),
    ),
    "out_of_order": (
        H + b"2024-03-02,10\n2024-03-03,20\n2024-03-02,30\n",
        (ValueError, "{path}:4: date 2024-03-02 is out of order (after 2024-03-03)"),
    ),
    "out_of_order_after_blank": (
        H + b"2024-03-02,10\n\n2024-03-03,20\n\n2024-03-02,30\n",
        (ValueError, "{path}:6: date 2024-03-02 is out of order (after 2024-03-03)"),
    ),
    "count_i8_max": (
        H + b"2024-03-01,9223372036854775807\n2024-03-02,0\n",
        ("2024-03-01", [9223372036854775807, 0]),
    ),
    "count_beyond_i8": (
        H + b"2024-03-01,9223372036854775808\n2024-03-02,20\n",
        (ValueError, "{path}:2: count 9223372036854775808 exceeds the int64 maximum"),
    ),
    "separator_padding": (
        H + b"2024-03-01,10\x1c\n2024-03-02,20\n", ("2024-03-01", [10, 20])
    ),
    "nul_byte": (H + b"2024-03-01,10\n2024-03-02,2\x000\n", (ValueError, "{path}:3: bad count '2\\x000'")),
    "no_final_newline": (H + b"2024-03-01,10\n2024-03-02,20", ("2024-03-01", [10, 20])),
    # a record is named by its first physical line, after a header or a
    # quoted field that spans two
    "two_line_header": (
        b'date,"peak_players\n"\n2024-03-01,10\n2024-03-04,40\n',
        (ValueError, "{path}:4: 2 missing day(s) between 2024-03-01 and 2024-03-04; "
                     "the series must list every day"),
    ),
    "two_line_record": (
        H + b'2024-03-01,"10\n"\n2024-03-02,20\n2024-03-05,50\n',
        (ValueError, "{path}:5: 2 missing day(s) between 2024-03-02 and 2024-03-05; "
                     "the series must list every day"),
    ),
}


def _series_outcome(read, path):
    """What read(path) returns or raises, as plain data, plus its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = read(path)
            out = (s.start, s.counts.tolist(), s.counts.dtype)
        except Exception as exc:  # the reader's own exception is the outcome
            out = (type(exc), str(exc))
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("name", list(SERIES_CORPUS))
def test_load_series_diagnostics_corpus(tmp_path, name):
    data, expected = SERIES_CORPUS[name]
    path = tmp_path / "c.csv"
    path.write_bytes(data)
    got, caught = _series_outcome(load_series, path)
    if isinstance(expected[0], str):
        start, counts = expected
        assert got == (dt.date.fromisoformat(start), counts, np.dtype(np.int64))
    else:
        assert got == (expected[0], expected[1].replace("{path}", str(path)))
    assert caught == []


def _reference_load_series(path):
    """load_series as a plain row loop, the reference the C-parsed reader must match:
    each dated row's day must be the day after the one before."""
    dates, counts = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["date", "peak_players"]:
            raise ValueError(f"{path}: expected header 'date,peak_players', got {header}")
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
            if count > np.iinfo(np.int64).max:
                raise ValueError(f"{path}:{lineno}: count {count} exceeds the int64 maximum")
            if dates:
                if day == dates[-1]:
                    raise ValueError(f"{path}:{lineno}: duplicate date {day}")
                if day < dates[-1]:
                    raise ValueError(
                        f"{path}:{lineno}: date {day} is out of order (after {dates[-1]})"
                    )
                missing = (day - dates[-1]).days - 1
                if missing:
                    raise ValueError(
                        f"{path}:{lineno}: {missing} missing day(s) between {dates[-1]} and {day}; "
                        "the series must list every day"
                    )
            dates.append(day)
            counts.append(count)
    if len(dates) < 2:
        raise ValueError(f"{path}: need at least 2 daily rows, got {len(dates)}")
    return RawSeries(start=dates[0], counts=np.asarray(counts))


_ODD_DATES = ["20240301", "2024-W09-5", "2024-061", " 2024-03-01", "2024-03-01 ", "2024-02-30",
              "0000-01-01", "0001-01-01", "9999-12-31", "2024-3-1", "2024-03-01T00", "+2024-03-01",
              "２０２４-03-01", "", "2024-13-01", "2024-00-10", "2024/03/01", "2024-03", '"2024-03-01"']
_ODD_COUNTS = ["-0", "+5", " 5", "5 ", "1_000", "1.0", "1e3", "9223372036854775808", "", "x",
               "٥", '"5"', "-1", "007", "0x10", "5\x1c", "\t5", "nan", "1 2", "\u30005"]


@st.composite
def _series_files(draw):
    """Small CSV files: mostly valid daily rows, with odd fields, steps and lines mixed in;
    a file with no odd draw is a clean gap-free series."""
    day = draw(st.dates(dt.date(1, 1, 1), dt.date(9999, 11, 1)))
    odd = draw(st.sampled_from([0.0, 0.05, 0.3]))
    lines = ["date,peak_players"]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.floats(0, 1)) < odd:
            date = draw(st.sampled_from(_ODD_DATES))
        else:
            step = 1 if draw(st.floats(0, 1)) >= odd else draw(st.sampled_from([0, -1, 2, 5]))
            day = min(day + dt.timedelta(days=step), dt.date(9999, 12, 31))
            date = day.isoformat()
        count = draw(st.sampled_from(_ODD_COUNTS) if draw(st.floats(0, 1)) < odd
                     else st.integers(0, 10**12).map(str))
        line = f"{date},{count}"
        if draw(st.floats(0, 1)) < odd:
            line = draw(st.sampled_from(["", "   ", ",", f"{line},", date, f'"{date}",{count}']))
        lines.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=_series_files())
def test_load_series_matches_the_row_loop(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "s.csv"
    path.write_bytes(data)
    assert _series_outcome(load_series, path) == _series_outcome(_reference_load_series, path)


def test_load_series_parses_clean_files_in_c(tmp_path, monkeypatch):
    # a clean file never reaches the row loop: the C-parsed body is accepted
    accepted = []
    parse = hybridsis.ingest._parse_series

    def recording_parse(rows):
        accepted.append(parse(rows))
        return accepted[-1]

    monkeypatch.setattr(hybridsis.ingest, "_parse_series", recording_parse)
    forbid_row_loop(monkeypatch, hybridsis.ingest)
    p = tmp_path / "s.csv"
    write_csv(p, daily_rows(range(100, 140)))
    series = load_series(p)
    assert isinstance(accepted[0], RawSeries)
    assert series.start == START
    np.testing.assert_array_equal(series.counts, range(100, 140))


def test_load_series_parses_a_two_line_header_in_c(tmp_path, monkeypatch):
    # the C parser reads the body from where the csv module left the
    # handle, here after a quoted header field with a line break in it
    forbid_row_loop(monkeypatch, hybridsis.ingest)
    p = tmp_path / "s.csv"
    write_csv(p, daily_rows(range(100, 140)), header='date,"peak_players\n"')
    series = load_series(p)
    assert series.start == START
    np.testing.assert_array_equal(series.counts, range(100, 140))


def test_load_update_dates_formats(tmp_path):
    as_json = tmp_path / "u.json"
    as_json.write_text('["2024-03-05", "2024-03-20"]')
    as_lines = tmp_path / "u.txt"
    as_lines.write_text("2024-03-05\n2024-03-20\n")
    want = (dt.date(2024, 3, 5), dt.date(2024, 3, 20))
    assert load_update_dates(as_json) == want
    assert load_update_dates(as_lines) == want

    bad_order = tmp_path / "b.txt"
    bad_order.write_text("2024-03-20\n2024-03-05\n")
    with pytest.raises(ValueError, match="increasing"):
        load_update_dates(bad_order)
    empty = tmp_path / "e.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="no dates"):
        load_update_dates(empty)
    garbled = tmp_path / "g.txt"
    garbled.write_text("2024-03-99\n")
    with pytest.raises(ValueError, match="bad date"):
        load_update_dates(garbled)
    # a JSON entry must be a string: 20240320 is not read as a date
    number = tmp_path / "n.json"
    number.write_text('["2024-03-05", 20240320]')
    with pytest.raises(ValueError) as info:
        load_update_dates(number)
    assert str(info.value) == f"{number}: bad date 20240320: fromisoformat: argument must be str"


def make_series(tmp_path, counts, **kw):
    p = tmp_path / "series.csv"
    write_csv(p, daily_rows(counts, **kw))
    return load_series(p)


def test_align_basic(tmp_path):
    counts = [100, 120, 150, 200, 260, 300, 320, 330, 335, 340, 342]
    series = make_series(tmp_path, counts)
    update = START + dt.timedelta(days=5)
    ds = align(series, [update], population=1000)
    assert isinstance(ds, AlignedDataset)
    assert ds.schedule.update_steps == (5,)
    assert ds.schedule.final_step == 10
    assert ds.schedule.step_size == 1.0
    assert ds.population == 1000
    assert ds.start_date == START
    assert not ds.smoothed
    np.testing.assert_array_equal(ds.trajectory.values, np.array(counts) / 1000.0)
    np.testing.assert_array_equal(ds.trajectory.to_counts(), counts)


def test_align_window_shifts_offsets(tmp_path):
    counts = list(range(100, 100 + 15))
    series = make_series(tmp_path, counts)
    update = START + dt.timedelta(days=6)
    lo = START + dt.timedelta(days=2)
    hi = START + dt.timedelta(days=12)
    ds = align(series, [update], population=1000, window=(lo, hi))
    assert ds.start_date == lo
    assert ds.schedule.update_steps == (4,)
    assert ds.schedule.final_step == 10
    np.testing.assert_array_equal(
        ds.trajectory.values, np.array(counts[2:13]) / 1000.0
    )
    # open-ended halves default to the data's bounds
    ds2 = align(series, [update], population=1000, window=(lo, None))
    assert ds2.schedule.final_step == 12


def test_align_rejections(tmp_path):
    counts = [100, 120, 150, 200, 260, 300, 320]
    series = make_series(tmp_path, counts)
    update = START + dt.timedelta(days=3)

    with pytest.raises(ValueError, match="exceeds the population"):
        align(series, [update], population=319)

    with pytest.raises(ValueError, match="outside the usable"):
        align(series, [START], population=1000)  # release on day 0
    with pytest.raises(ValueError, match="outside the usable"):
        align(series, [START + dt.timedelta(days=6)], population=1000)  # last day
    with pytest.raises(ValueError, match="exceeds the data range"):
        align(series, [update], population=1000,
              window=(START - dt.timedelta(days=1), None))
    with pytest.raises(ValueError, match="at least two days"):
        align(series, [update], population=1000, window=(START, START))


def _smooth_weekly_loop(counts):
    """The per-day loop _smooth_weekly replaced: the mean of each shrinking
    centered window."""
    x = counts.astype(float)
    n = x.size
    return np.array([x[max(0, j - 3) : min(n, j + 4)].mean() for j in range(n)])


def test_smooth_weekly_equals_the_per_day_loop_bitwise():
    rng = np.random.Generator(np.random.PCG64(41))
    cases = [rng.integers(0, 10**6, n) for n in range(1, 101)]
    cases.append(rng.integers(0, 10**6, 1461))  # four years of days
    for counts in cases:
        got = hybridsis.ingest._smooth_weekly(counts.astype(float))
        assert got.tobytes() == _smooth_weekly_loop(counts).tobytes(), counts.size


def test_align_smooth7(tmp_path):
    counts = [100, 200, 100, 200, 100, 200, 100, 200, 100, 200, 100]
    series = make_series(tmp_path, counts)
    update = START + dt.timedelta(days=5)
    ds = align(series, [update], population=1000, smooth7=True)
    assert ds.smoothed
    # interior sample 5: centered 7-day window over alternating values
    want5 = np.mean(counts[2:9]) / 1000.0
    assert ds.trajectory.values[5] == pytest.approx(want5)
    # edge sample 0: window shrinks to the first four days
    want0 = np.mean(counts[0:4]) / 1000.0
    assert ds.trajectory.values[0] == pytest.approx(want0)

    plain = align(series, [update], population=1000)
    assert not plain.smoothed
    assert plain.trajectory.values[5] == counts[5] / 1000.0

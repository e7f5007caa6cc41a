"""The chunked CSV reader and writer against their reference paths.

Each reader's fast path (whole plain chunks parsed by ``np.loadtxt``) must
give the same arrays, bit for bit, and the same errors as its
``csv.reader`` row loop, which ``_outcome(..., slow=True)`` forces on
every chunk.  The writer must give the bytes of ``csv.writer``.
"""

import contextlib
import csv
import functools
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfdr import cli, csvio, forecaster

#: a small chunk, so that a short example spans several chunks
SMALL_CHUNK = 3

P_GOOD = ["0.5", " 0.5 ", "+.5", "5e-1", "0.25", "1", "0", "1e-300", "0.1_5",
          "0.3333333333333333", '"0.75"', "\t0.5"]
P_BAD = ["nan", "inf", "1_0", "", "abc", "-0.1", "1.5", "0x1", '"0.5', "5_0"]
LABEL_GOOD = ["0", "1", " 1 ", "1.0", "-2.5", "0.9", "+1", "1_1", "5_0"]
LABEL_BAD = ["inf", "1e400", "nan", "x", ""]
REJECT_GOOD = ["0", "1", " 1", "+0", "1_0", "00", "99999999999999999999999",
               "5_0", str(2**63), str(-2**63 - 1)]
REJECT_BAD = ["1.0", "x", ""]
VALUE_GOOD = ["1.5", " 0.5 ", "+.5", "5e-1", "1_0", "-3", "2.5e3",
              "0.30000000000000004", '"7"', "5_0"]
VALUE_BAD = ["", "nan", "NaN", "inf", "-inf", "abc", "1e400"]


def _t_good(i):
    return [str(i), f" {i}", f"{i:04d}", f"+{i}", f"{i} "]


def _t_bad(i):
    return [str(i + 1), "x", "", "1.0", str(2**63), str(-2**63 - 1)]


#: what a noisy file may wrap a cell in: the separators \x1c-\x1f, which
#: numpy's reader strips and Python's int and float refuse, and NUL
WRAPS = [w for ch in "\x1c\x1d\x1e\x1f\x00" for w in (ch + "{}", "{}" + ch)]


@st.composite
def csv_texts(draw, header, pools, extra_ok=False):
    """A CSV text: ``header`` and up to 12 rows whose cells come from
    ``pools`` (per column: (good, bad), lists or functions of the row
    number).  Half the files hold only good cells; the others may wrap a
    cell by ``WRAPS``.  Any file may use CRLF line ends, lack its last line
    end, or hold ragged, padded, blank, whitespace-only or ``#``-led
    lines."""
    noisy = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    lines = [",".join(header)]
    for i in range(1, draw(st.integers(0, 12)) + 1):
        cells = []
        for good, bad in pools:
            good = good(i) if callable(good) else good
            bad = bad(i) if callable(bad) else bad
            pool = good * 4 + bad if noisy else good
            cell = draw(st.sampled_from(pool))
            if noisy and draw(st.integers(0, 9)) == 0:
                cell = draw(st.sampled_from(WRAPS)).format(cell)
            cells.append(cell)
        shape = draw(st.sampled_from(["as is"] * 12 + [
            "short", "extra", "blank", "spaces", "hash"]))
        if noisy or (extra_ok and shape == "extra"):
            if shape == "short":
                cells = cells[:-1]
            elif shape == "extra":
                cells = cells + ["z"]
            elif shape == "blank":
                cells = []
            elif shape == "spaces":
                cells = [" \t "]
            elif shape == "hash":
                cells = ["#" + cells[0]] + cells[1:]
        lines.append(",".join(cells))
    text = eol.join(lines)
    return text + eol if draw(st.booleans()) else text


def _arrays(value):
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if isinstance(value, forecaster.SeriesFrame):
        return _arrays((value.values, value.labels))
    if hasattr(value, "rejected"):     # a DecisionLog
        return _arrays((value.p, value.alpha, value.rejected, value.is_null))
    if value is None:
        return [None]
    return [(value.dtype.str, value.shape, value.tobytes())]


def _outcome(read, path, slow=False):
    """The arrays ``read(path)`` returns, or its error message."""
    forced = (mock.patch.object(csvio, "_plain_cells", side_effect=ValueError)
              if slow else contextlib.nullcontext())
    with forced, mock.patch.object(csvio, "CHUNK_ROWS", SMALL_CHUNK):
        try:
            return _arrays(read(path))
        except ValueError as exc:
            return str(exc)


def _same_both_ways(tmp_path_factory, text, read):
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode())
    fast = _outcome(read, path)
    assert fast == _outcome(read, path, slow=True)
    return fast


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), label=st.booleans())
def test_stream_reader_fast_equals_row_loop(tmp_path_factory, data, label):
    header = ["t", "p"] + (["label"] if label else [])
    pools = [(_t_good, _t_bad), (P_GOOD, P_BAD)]
    if label:
        pools.append((LABEL_GOOD, LABEL_BAD))
    text = data.draw(csv_texts(header, pools, extra_ok=True))
    _same_both_ways(tmp_path_factory, text, cli.read_stream_csv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), label=st.booleans())
def test_decision_reader_fast_equals_row_loop(tmp_path_factory, data, label):
    names = ["t", "p", "alpha", "reject"] + (["label"] if label else [])
    header = data.draw(st.permutations(names))
    pools = {"t": (_t_good, _t_bad), "p": (P_GOOD, P_BAD),
             "alpha": (P_GOOD, P_BAD), "reject": (REJECT_GOOD, REJECT_BAD),
             "label": (LABEL_GOOD, LABEL_BAD)}
    text = data.draw(csv_texts(header, [pools[h] for h in header],
                               extra_ok=True))
    _same_both_ways(tmp_path_factory, text, cli.read_decisions_csv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), label=st.booleans(), fill=st.booleans())
def test_series_reader_fast_equals_row_loop(tmp_path_factory, data, label,
                                            fill):
    names = ["x0", "x1"] + (["label"] if label else [])
    header = data.draw(st.permutations(names))
    pools = {"x0": (VALUE_GOOD, VALUE_BAD), "x1": (VALUE_GOOD, VALUE_BAD),
             "label": (LABEL_GOOD, LABEL_BAD)}
    text = data.draw(csv_texts(header, [pools[h] for h in header]))

    def read(path):
        return forecaster.ingest_csv(
            path, label_column="label" if label else None, forward_fill=fill)
    _same_both_ways(tmp_path_factory, text, read)


def _anomalous(value):
    """The per-row anomaly flags that a reader returned."""
    if isinstance(value, forecaster.SeriesFrame):
        return value.labels.tolist()
    is_null = value[1] if isinstance(value, tuple) else value.is_null
    return (~is_null).tolist()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(labels=st.lists(st.sampled_from(LABEL_GOOD * 3 + LABEL_BAD),
                       min_size=1, max_size=12))
def test_one_label_rule_across_readers(tmp_path_factory, labels):
    """The stream, decision-log and series readers accept the same label
    cells, flag the same rows as anomalous, and refuse a bad cell naming
    its row."""
    base = tmp_path_factory.mktemp("labels")
    rows = list(enumerate(labels, start=1))
    tables = {
        cli.read_stream_csv: ("t,p,label", "{t},0.5,{label}"),
        cli.read_decisions_csv: ("t,p,alpha,reject,label",
                                 "{t},0.5,0.1,0,{label}"),
        functools.partial(forecaster.ingest_csv, label_column="label"): (
            "x,label", "0.5,{label}"),
    }
    bad = [t for t, label in rows if label in LABEL_BAD]
    for k, (read, (header, line)) in enumerate(tables.items()):
        path = base / f"{k}.csv"
        path.write_text(header + "\n" + "".join(
            line.format(t=t, label=label) + "\n" for t, label in rows))
        with mock.patch.object(csvio, "CHUNK_ROWS", SMALL_CHUNK):
            if bad:
                with pytest.raises(ValueError) as exc:
                    read(path)
                assert f"row {bad[0]}: " in str(exc.value)
                assert "label" in str(exc.value)
            else:
                assert _anomalous(read(path)) == [
                    int(float(label)) != 0 for label in labels]


def _stream_text(n, bad_row=None, bad_line="x,0.5"):
    rng = np.random.default_rng(n)
    rows = [f"{i},{p!r},{int(p < 0.1)}"
            for i, p in enumerate(rng.random(n).tolist(), start=1)]
    if bad_row is not None:
        rows[bad_row - 1] = bad_line
    return "t,p,label\n" + "\n".join(rows) + "\n"


class TestReadColumns:
    def _trace(self, text, chunk):
        calls = []

        def fast(lines, first):
            calls.append(("fast", first, len(lines)))
            return csvio.parse_columns(lines, [(1, float)])

        def slow(rows, first, parts):
            rows = list(rows)
            calls.append(("slow", first, len(rows), len(parts)))
            return (np.asarray([float(r[1]) for r in rows]),)

        fh = io.StringIO(text, newline="")
        assert csvio.read_header(fh) == ["t", "p"]
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
            p, = csvio.read_columns(fh, 2, fast, slow)
        return calls, p

    def test_plain_chunks_take_the_fast_path(self):
        text = "t,p\n" + "".join(f"{i},{i / 10}\n" for i in range(1, 11))
        calls, p = self._trace(text, 4)
        assert calls == [("fast", 1, 4), ("fast", 5, 4), ("fast", 9, 2),
                         ("slow", 11, 0, 3)]
        np.testing.assert_array_equal(p, np.arange(1, 11) / 10)

    def test_a_quoted_chunk_and_the_rest_take_the_row_loop(self):
        text = "t,p\n" + "".join(f"{i},{i / 10}\n" for i in range(1, 11))
        text = text.replace("6,0.6", '6,"0.6"')
        calls, p = self._trace(text, 4)
        assert calls == [("fast", 1, 4), ("slow", 5, 6, 1)]
        np.testing.assert_array_equal(p, np.arange(1, 11) / 10)

    def test_empty_body(self):
        calls, p = self._trace("t,p\n", 4)
        assert calls == [("slow", 1, 0, 0)] and p.size == 0


class TestSeparatorCells:
    """numpy's reader strips \\x1c-\\x1f from a cell as whitespace; Python's
    int and float refuse them, so a chunk holding one goes to the row loop."""

    def _detect(self, tmp_path, text):
        stream = tmp_path / "s.csv"
        stream.write_text(text)
        return cli.main(["--output-dir", str(tmp_path), "detect", "--input",
                         str(stream), "--method", "lord", "--out", "d"])

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_detect_refuses_it_naming_row_1(self, tmp_path, capsys, sep):
        assert self._detect(tmp_path, f"t,p\n1,0.5{sep}\n") == 2
        assert (f"row 1: cannot read p from {'0.5' + sep!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "d.csv").exists()

    def test_verify_refuses_it_naming_row_1(self, tmp_path, capsys):
        assert self._detect(tmp_path, "t,p\n1,0.5\n") == 0
        log = tmp_path / "d.csv"
        log.write_text(log.read_text().replace(",0.5,", ",0.5\x1c,"))
        capsys.readouterr()
        assert cli.main(["verify", "--input", str(log), "--manifest",
                         str(tmp_path / "d.manifest.json"),
                         "--allow-modified"]) == 2
        captured = capsys.readouterr()
        assert "row 1: cannot read p from '0.5\\x1c'" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("cells, fault", [
        ("1,0.5\x1c,0", "bad number '0.5\\x1c' in column 'y'"),
        ("1,\x1f0.5,0", "bad number '\\x1f0.5' in column 'y'"),
        ("1,0.5,\x1c1", "bad label '\\x1c1'"),
        ("1,0.5,1\x1d", "bad label '1\\x1d'")])
    def test_score_refuses_it_naming_row_1(self, tmp_path, capsys, cells,
                                           fault):
        # the series reader strips a cell only of what float() strips
        (tmp_path / "s.csv").write_text(f"x,y,label\n{cells}\n2,0.7,0\n")
        assert cli.main(["--output-dir", str(tmp_path), "score", "--input",
                         str(tmp_path / "s.csv"), "--label-column", "label",
                         "--window", "2", "--out", "p"]) == 2
        assert f"row 1: {fault}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_series_reader_strips_what_float_strips(self):
        space = "".join(ch for ch in map(chr, range(0x110000))
                        if ch.isspace() and ch not in "\x1c\x1d\x1e\x1f")
        assert forecaster._SPACE == space
        assert all(float(f"{ch}1{ch}") == 1.0 for ch in space)


@pytest.mark.parametrize("line", ["", " ", "\t"])
def test_one_column_series_refuses_a_blank_line(tmp_path, line):
    # one column has no comma to count, and numpy's reader skips a blank line
    path = tmp_path / "x.csv"
    path.write_text(f"x\n1.5\n{line}\n2.5\n")
    with pytest.raises(ValueError, match="row 2: "):
        forecaster.ingest_csv(path)


class TestChunkBoundaries:
    """Files longer than one real chunk, with a bad row in a later chunk."""

    def test_long_file_reads_like_the_row_loop(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(_stream_text(2 * csvio.CHUNK_ROWS + 5))
        p, is_null = cli.read_stream_csv(path)
        assert p.size == 2 * csvio.CHUNK_ROWS + 5
        with mock.patch.object(csvio, "_plain_cells", side_effect=ValueError):
            p_slow, is_null_slow = cli.read_stream_csv(path)
        assert p.tobytes() == p_slow.tobytes()
        assert is_null.tobytes() == is_null_slow.tobytes()

    @pytest.mark.parametrize("bad_line, problem", [
        ("x,0.5,0", "cannot read t from 'x'"),
        ("4500,0.5", "expected 3 columns, got 2"),
        ("4501,0.5,0", "indices must be gapless from 1"),
        ('4500,"0.5,0', "expected 3 columns, got 2"),
    ])
    def test_bad_row_in_second_chunk_named_file_wide(self, tmp_path,
                                                     bad_line, problem):
        path = tmp_path / "s.csv"
        path.write_text(_stream_text(csvio.CHUNK_ROWS + 1000, 4500, bad_line))
        with pytest.raises(ValueError, match=f"row 4500: {problem}"):
            cli.read_stream_csv(path)

    def test_p_out_of_range_in_third_chunk(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(_stream_text(3 * csvio.CHUNK_ROWS, 9000,
                                     "9000,1.25,0"))
        with pytest.raises(ValueError, match=r"row 9000: p-value must lie "
                                             r"in \[0, 1\], got 1.25"):
            cli.read_stream_csv(path)

    @pytest.mark.parametrize("start, shift, error", [
        (1, 0, None),
        (7, 0, None),                     # a resumed log starts above 1
        (1, 10, f"row {csvio.CHUNK_ROWS + 1}: t must count up by 1"),
        (0, 0, "row 1: t must count up by 1"),
    ])
    def test_decision_t_counts_on_across_chunks(self, tmp_path, start, shift,
                                                error):
        # from the first row of the second chunk on, t is shifted by `shift`
        n = csvio.CHUNK_ROWS + 50
        t = np.arange(start, start + n)
        t[csvio.CHUNK_ROWS:] += shift
        path = tmp_path / "d.csv"
        path.write_text("t,p,alpha,reject\n" + "".join(
            f"{k},0.5,0.01,0\n" for k in t.tolist()))
        if error is None:
            assert cli.read_decisions_csv(path).p.size == n
        else:
            with pytest.raises(ValueError, match=error):
                cli.read_decisions_csv(path)

    def test_bad_row_before_an_undecodable_byte_is_named(self, tmp_path):
        # the byte lies past the first decoded block, inside the first chunk
        path = tmp_path / "s.csv"
        path.write_bytes(b"t,p\n1,0.5\n2,x\n" + b"3,0.5\n" * 5000 + b"\xff\n")
        with pytest.raises(ValueError, match="row 2: cannot read p from 'x'"):
            cli.read_stream_csv(path)
        path.write_bytes(b"t,p\n" + b"".join(
            b"%d,0.5\n" % i for i in range(1, 5001)) + b"\xff\n")
        with pytest.raises(UnicodeDecodeError):
            cli.read_stream_csv(path)

    def test_forward_fill_across_a_chunk_edge(self, tmp_path):
        n = csvio.CHUNK_ROWS + 3
        rows = [f"{i}.5,{i}" for i in range(n)]
        rows[csvio.CHUNK_ROWS] = ",nan"       # first row of the 2nd chunk
        path = tmp_path / "x.csv"
        path.write_text("a,b\n" + "\n".join(rows) + "\n")
        frame = forecaster.ingest_csv(path, forward_fill=True)
        last = csvio.CHUNK_ROWS - 1
        assert frame.values[csvio.CHUNK_ROWS].tolist() == [last + 0.5, last]


def _reference_cell(value):
    """A cell as the writer's rules give it to ``csv.writer``: None empty,
    bools as 0/1, floats by ``repr``, integers by ``str``, one at a time."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return value


def _csv_writer_bytes(header, columns):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*([_reference_cell(v) for v in column]
                           for column in columns)))
    return buf.getvalue()


def _write_bytes(header, columns):
    buf = io.StringIO(newline="")
    csvio.write_columns(buf, header, columns)
    return buf.getvalue()


TEXT_CELLS = st.one_of(
    st.sampled_from(["lord", "with,comma", 'a "quote"', "line\nbreak",
                     "cr\rhere", "", " pad ", "x"]),
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True))


class TestWriter:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(0, 10), width=st.integers(1, 4))
    def test_bytes_equal_csv_writer(self, data, n, width):
        columns = []
        for _ in range(width):
            kind = data.draw(st.sampled_from(["f", "i", "u", "b", "text"]))
            if kind == "f":
                col = np.asarray(data.draw(st.lists(
                    st.floats(allow_nan=True, allow_infinity=True),
                    min_size=n, max_size=n)), dtype=np.float64)
            elif kind == "i":
                col = np.asarray(data.draw(st.lists(
                    st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                    dtype=np.int64)
            elif kind == "u":
                col = np.asarray(data.draw(st.lists(
                    st.integers(0, 2**64 - 1), min_size=n, max_size=n)),
                    dtype=np.uint64)
            elif kind == "b":
                col = np.asarray(data.draw(st.lists(
                    st.booleans(), min_size=n, max_size=n)), dtype=bool)
            else:
                col = data.draw(st.lists(TEXT_CELLS, min_size=n, max_size=n))
            columns.append(col)
        header = [f"c{i}" for i in range(width)]
        with mock.patch.object(csvio, "CHUNK_ROWS", SMALL_CHUNK):
            assert _write_bytes(header, columns) == _csv_writer_bytes(
                header, columns)

    def test_long_columns_equal_csv_writer(self):
        rng = np.random.default_rng(4)
        n = 2 * csvio.CHUNK_ROWS + 17
        columns = [np.arange(1, n + 1), rng.random(n), rng.random(n) < 0.3,
                   ["a,b" if i == n - 3 else "m" for i in range(n)]]
        header = ["t", "p", "reject", "note"]
        assert _write_bytes(header, columns) == _csv_writer_bytes(
            header, columns)

    @pytest.mark.parametrize("text", [False, True])
    def test_integers_at_the_extremes(self, text):
        # a uint64 at or above 2**63 is written as itself, not wrapped
        # negative; int64 at both ends; with a text column, through
        # csv.writer
        unsigned = np.array([0, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1],
                            dtype=np.uint64)
        signed = np.array([-2**63, -2**63 + 1, -1, 0, 2**63 - 1])
        columns = [unsigned, signed] + ([["x"] * 5] if text else [])
        lines = _write_bytes(["u", "i", "s"][:len(columns)],
                             columns).splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            ["0", "-9223372036854775808"],
            ["9223372036854775807", "-9223372036854775807"],
            ["9223372036854775808", "-1"],
            ["9223372036854775813", "0"],
            ["18446744073709551615", "9223372036854775807"]]
        assert csvio.cells(unsigned[3:4]) == ["9223372036854775813"]


def _misprinted(x):
    """The first values of the float array ``x`` whose cell, as the writer
    writes them in one column, is not their ``repr``: (repr, cell) pairs."""
    x = np.asarray(x)
    cells = _write_bytes(["x"], [x]).split("\n")[1:-1]
    assert len(cells) == x.size
    return [(repr(value), cell) for value, cell in zip(x.tolist(), cells)
            if cell != repr(value)][:5]


def _float_corpus(seed):
    """Uniform [0, 1), log-uniform 1e-320..1e308, every power of 2 and of
    10 with both neighbours, integers and halves, of both signs."""
    rng = np.random.default_rng(seed)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                             10.0 ** np.arange(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, np.inf),
                             np.nextafter(powers, 0.0)])
    integers = np.concatenate([np.arange(-1000, 1001),
                               rng.integers(-2**53, 2**53, 20_000),
                               rng.integers(-2**63, 2**63 - 1, 20_000)])
    halves = rng.integers(-2**52, 2**52, 20_000) + 0.5
    parts = [rng.random(100_000), 10.0 ** rng.uniform(-320, 308, 100_000),
             powers, integers.astype(np.float64), halves]
    return np.concatenate(parts + [-part for part in parts])


class TestFloatCells:
    """Every float cell is the value's ``repr``."""

    def test_seeded_corpus(self):
        assert _misprinted(_float_corpus(17)) == []

    def test_random_bit_patterns(self):
        x = np.random.default_rng(18).integers(
            0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        assert _misprinted(x) == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, values):
        # nan, inf, -0.0 and subnormals included
        assert _misprinted(values) == []

    def test_narrower_floats_as_their_float64_value(self):
        assert _misprinted(np.array([0.1, 1e-40, 3.0e38, np.nan],
                                    dtype=np.float32)) == []

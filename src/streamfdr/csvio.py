"""Chunked CSV reading and writing for the numeric tables of the CLI.

Reading.  ``read_header`` reads the header with ``csv.reader``.
``read_columns`` then reads the body ``CHUNK_ROWS`` lines at a time.  A
chunk is *plain* when each of its lines has exactly one comma fewer than
the header has cells and it holds no quote, no carriage return and none of
the separators ``\\x1c``-``\\x1f``, which numpy strips from a cell as
whitespace and Python refuses (``_plain_cells``).  A plain chunk's lines go
to the reader's fast parser, which parses them with one call of numpy's C
reader (``parse_columns``).  On plain lines that reader accepts a cell only
when Python's ``int`` or ``float`` accepts it, and then gives the same
value, bit for bit; it refuses a few cells that Python accepts, such as
``1_0`` and integers beyond int64.  When a chunk is not plain, or the fast
parser rejects it (such a cell, a cell that does not parse, or a check of
its own such as a gap in ``t``), that chunk and the rest of the file go to
the reader's row loop over ``csv.reader``.  The row loop is the reference:
it handles quoting, CRLF line ends, extra trailing cells and forward fill,
and it names the first bad row by its file-wide number.  Apart from the
parsed columns, memory is bounded by one chunk.

``read_table`` is the one fast parser and row loop of the t-indexed tables
(``detect``'s p-value streams, ``verify``'s decision logs): it holds their
rules for ``t``, ``reject`` (``flag``) and labels (``label``) and names a
bad row.  ``forecaster.ingest_csv`` keeps its own row loop, but parses
plain chunks by ``parse_columns`` and reads ``label``.

Writing.  ``write_columns`` writes the header with ``csv.writer`` and the
body ``CHUNK_ROWS`` rows at a time, byte for byte as
``csv.writer(fh, lineterminator="\\n")`` would, floats exactly as ``repr``
writes them.  A chunk of float, integer and bool arrays, which never need
quoting, is built as one byte matrix, a column per row of the chunk with
0 bytes where a cell is shorter than its rows, and written in one call
(``_numeric_lines``).  Float cells take Ryu's shortest round-trip digits,
computed in uint64 lanes with integer arithmetic only (``_shortest``) and
laid out as ``repr`` lays them out (``_float_rows``).  Only the lanes
outside Ryu's common case call ``repr``, in one batch per chunk: 0.0,
subnormals, inf, nan, |x| >= 2**54 and mantissas with at least q trailing
zero bits, every integer-valued float among them.  A chunk holding any
other column goes through ``csv.writer``, its cells made by ``cells``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import warnings

import numpy as np

#: rows per chunk, for reading and for writing
CHUNK_ROWS = 4096


def read_header(fh):
    """The stripped header cells of ``fh``; ValueError if it has none."""
    try:
        header = next(csv.reader(fh), None)
    except csv.Error as exc:
        raise ValueError(f"{fh.name}: header: {exc}") from None
    if header is None:
        raise ValueError(f"{fh.name}: empty file")
    return [h.strip() for h in header]


def flag(cell) -> bool:
    """A 0/1 cell such as ``reject``: an integer, true when nonzero."""
    return int(cell) != 0


def label(cell) -> bool:
    """A label cell: a finite number, anomalous when its integer part is
    nonzero (``inf`` and ``nan`` have none)."""
    return int(float(cell)) != 0


#: the dtype numpy's reader gives the column of each cell parser
_FIELDS = {int: np.int64, flag: np.int64, float: np.float64,
           label: np.float64}


def parse_columns(lines, columns):
    """The columns of a plain chunk (its ``lines``), parsed by one call of
    numpy's C reader.

    ``columns`` lists (index, parser) pairs; the parser ``int`` or
    ``float`` gives an int64 or float64 array, ``flag`` or ``label`` a bool
    array.  On the lines ``_plain_cells`` lets through, the reader accepts a
    cell only when Python's ``int`` or ``float`` does, and then gives the
    same value.  Raises ValueError on a cell that it or ``parser`` refuses
    and on a blank line, which the reader would skip.
    """
    dtype = [(f"c{k}", _FIELDS[p]) for k, (_, p) in enumerate(columns)]
    with warnings.catch_warnings():
        # numpy before 2.0 reads an int cell such as 1.0 through float,
        # with a DeprecationWarning; int() refuses it
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None,
                               quotechar=None, dtype=dtype, ndmin=1,
                               usecols=[i for i, _ in columns])
        except Warning as exc:
            raise ValueError(str(exc)) from None
    if table.size != len(lines):
        raise ValueError("a line is blank")
    out = []
    for k, (_, parse) in enumerate(columns):
        values = table[f"c{k}"]
        if parse is flag:
            values = values != 0
        elif parse is label:
            if not np.isfinite(values).all():
                raise ValueError("a label has no integer part")
            values = np.trunc(values) != 0.0
        out.append(values)
    return out


#: the bytes a chunk's skeleton keeps: the ends of its cells and lines, and
#: what makes it not plain: csv quoting and the separators \x1c-\x1f, which
#: numpy's reader strips from a cell and Python's int and float refuse
_SKELETON = b',\n"\r\x1c\x1d\x1e\x1f'
_NOT_SKELETON = bytes(sorted(set(range(256)) - set(_SKELETON)))


def _plain_cells(lines, width):
    """Raise ValueError unless the cells of a chunk's ``lines`` are plain:
    ``width`` to a line, none longer than ``csv`` reads, and free of the
    characters that ``_SKELETON`` keeps besides ``,`` and ``\\n``."""
    text = "".join(lines)
    skeleton = text.encode().translate(None, _NOT_SKELETON)
    if not text.endswith("\n"):        # the last line of the file
        skeleton += b"\n"
    if skeleton != (b"," * (width - 1) + b"\n") * len(lines):
        raise ValueError("a line is not plain")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        raise ValueError("a cell may be too long for csv")


def _raising(exc):
    """An iterator that raises ``exc`` when it is read."""
    raise exc
    yield


def read_columns(fh, width, fast, slow):
    """Read the data rows of ``fh`` (positioned after its header) into
    column arrays.

    ``fast(lines, first_row)`` parses one plain chunk, given as its lines
    (see ``_plain_cells``), and returns a sequence of arrays; it raises
    ValueError or OverflowError to hand the chunk over to ``slow``.
    ``slow(rows, first_row, parts)`` parses ``csv.reader`` rows from data row
    ``first_row`` (row 1 is the first data row) to the end of the file and
    returns a sequence of arrays; ``parts`` holds what ``fast`` returned for
    the chunks before.  Returns one array per column, the parts concatenated.

    A row that ``csv.reader`` cannot read raises ValueError naming it.  A
    file that is not valid text fails where the row loop meets it: the rows
    read before the undecodable one are parsed first.
    """
    parts = []
    first = 1
    while True:
        lines, rest = [], fh
        try:
            lines.extend(itertools.islice(fh, CHUNK_ROWS))
        except UnicodeDecodeError as exc:
            rest = _raising(exc)
        else:
            if lines:
                try:
                    _plain_cells(lines, width)
                    parts.append(fast(lines, first))
                except (ValueError, OverflowError):
                    pass
                else:
                    first += len(lines)
                    continue
        handed = 0    # rows handed to the row loop

        def counted(rows):
            nonlocal handed
            for row in rows:
                handed += 1
                yield row

        try:
            tail = slow(counted(csv.reader(itertools.chain(lines, rest))),
                        first, parts)
        except csv.Error as exc:   # e.g. a quote left open to the end
            raise ValueError(
                f"{fh.name}: row {first + handed}: {exc}") from None
        return [np.concatenate(column) for column in zip(*parts, tail)]


# ---------------------------------------------------------------------------
# t-indexed tables
# ---------------------------------------------------------------------------

def quote(cell: str) -> str:
    """``repr(cell)`` for an error message, cut after 40 characters: a cell
    opened by a quote runs to the end of the file."""
    if len(cell) <= 40:
        return repr(cell)
    return f"{cell[:40]!r}... ({len(cell)} characters)"


def _bad_row(cells, columns, gap) -> str:
    """What is wrong with a row that failed to parse; ``columns`` holds the
    (name, index, parser) of each cell the reader parses, and ``gap`` says
    what is wrong when each cell parses."""
    width = max(i for _, i, _ in columns) + 1
    if len(cells) < width:
        return f"expected {width} columns, got {len(cells)}"
    for name, i, parse in columns:
        try:
            parse(cells[i])
        except (ValueError, OverflowError):
            return f"cannot read {name} from {quote(cells[i])}"
    return gap


_DTYPES = {int: np.int64, float: np.float64}   # flag and label: bool


def read_table(fh, width, columns, t_from, gap):
    """The body of a t-indexed table (``fh`` after its header, ``width``
    cells to a row) as one array per column after ``t``.

    ``columns`` lists (name, index, parser), ``t`` first; a parser is
    ``int``, ``float``, ``flag`` or ``label``.  ``t`` counts up by 1 from
    ``t_from`` or, when that is None, from row 1's ``t``, which must be 1
    or more.  A bad row raises ValueError naming it and its fault, which
    is ``gap`` when only ``t`` is out of step.
    """
    (_, it, _), *rest = columns
    first_t = t_from

    def fast(lines, first):
        nonlocal first_t
        t, *parsed = parse_columns(lines, [(i, p) for _, i, p in columns])
        if t_from is None and first == 1:
            first_t = int(t[0])
        start = first_t + first - 1
        if first_t < 1 or not np.array_equal(
                t, np.arange(start, start + t.size)):
            raise ValueError("t does not count up by 1")
        return parsed

    def slow(rows, first, _parts):
        nonlocal first_t
        parsed = [[] for _ in rest]
        try:
            for rowno, cells in enumerate(rows, start=first):
                t = int(cells[it])
                if t_from is None and rowno == 1:
                    first_t = t
                if first_t < 1 or t != first_t + rowno - 1:
                    raise ValueError
                for out, (_, i, parse) in zip(parsed, rest):
                    out.append(parse(cells[i]))
        except UnicodeDecodeError:   # not text: no row to blame
            raise
        except (IndexError, ValueError, OverflowError):
            raise ValueError(f"{fh.name}: row {rowno}: "
                             f"{_bad_row(cells, columns, gap)}") from None
        return [np.asarray(out, dtype=_DTYPES.get(parse, bool))
                for out, (_, _, parse) in zip(parsed, rest)]

    return read_columns(fh, width, fast, slow)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    """One CSV cell: None empty, bools as 0/1, floats by repr."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cells(column) -> list:
    """One column's CSV cells, by the rules of ``_format_cell``; a numpy
    array is read as Python numbers first, so each keeps its own value."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return list(map(_format_cell, column))


_LOW32 = np.uint64(0xFFFFFFFF)
_TEN = np.uint64(10)
#: 10**k, and the least k-digit tail that rounds up (1 for k = 0: none)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_HALF = np.array([1] + [5 * 10**k for k in range(19)], dtype=np.uint64)


@functools.lru_cache(maxsize=None)
def _ryu_table():
    """Ryu's constants for each biased exponent below 1077 (|x| < 2**54):
    the four 32-bit limbs of the 125-bit 5**i, the shift j - 96, the
    decimal exponent e10 and the mask of q low bits; the mask is 0, which
    sends a lane to ``repr``, for the other exponents."""
    limbs = np.zeros((4, 2048), np.uint64)
    shift = np.zeros(2048, np.uint64)
    e10 = np.zeros(2048, np.int16)
    low = np.zeros(2048, np.uint64)
    for biased in range(1, 1077):
        e2 = biased - 1077                    # x = mv * 2**e2, mv = 4 * m2
        q = ((-e2 * 732923) >> 20) - (e2 < -1)    # log10(5**-e2), less 1
        pow5 = 5 ** (-e2 - q)
        k = pow5.bit_length() - 125
        m = pow5 << -k if k < 0 else pow5 >> k
        limbs[:, biased] = [(m >> (32 * b)) & 0xFFFFFFFF for b in range(4)]
        shift[biased] = q - k - 96
        e10[biased] = q + e2
        low[biased] = (1 << min(q, 64)) - 1
    return limbs, shift, e10, low


def _shortest(x):
    """The shortest digits that read back as each value of the float64
    array ``x``, the closest to it among them: (digits, exponent, general)
    with value = digits * 10**exponent, by the common case of Ryu (Adams,
    "Ryu: fast float-to-string conversion", PLDI 2018) in uint64 lanes.

    ``general`` marks the lanes the common case does not cover, whose
    digits are wrong: 0.0, subnormals, inf, nan, |x| >= 2**54 and
    mantissas with at least q trailing zero bits, which take Ryu's general
    case and include every integer.

    Ryu scales mv - 1 - mmShift, mv and mv + 2 (the ends and middle of the
    interval that reads back as x) by 10**-e10 as floor(v * M / 2**j), M a
    125-bit 5**i.  Here the three are one 180-bit product (mv - 2) * M in
    32-bit limbs, plus (1 - mmShift) * M, 2 * M and 4 * M.
    """
    limbs, shift, e10, low = _ryu_table()
    bits = x.view(np.uint64)
    biased = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.intp)
    frac = bits & np.uint64((1 << 52) - 1)
    mv = (frac | np.uint64(1 << 52)) << np.uint64(2)
    general = (mv & low[biased]) == 0
    a = mv - np.uint64(2)
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    m0, m1, m2, m3 = limbs[:, biased]
    u0, u1, u2, u3 = a0 * m0, a0 * m1, a0 * m2, a0 * m3
    # the limbs of (mv - 2) * M before carries; each sum stays below 2**57
    c0 = u0 & _LOW32
    c1 = (u1 & _LOW32) + a1 * m0 + (u0 >> np.uint64(32))
    c2 = (u2 & _LOW32) + a1 * m1 + (u1 >> np.uint64(32))
    c3 = (u3 & _LOW32) + a1 * m2 + (u2 >> np.uint64(32))
    c4 = a1 * m3 + (u3 >> np.uint64(32))
    down = shift[biased]              # j - 96, from 22 to 26
    up = np.uint64(32) - down

    def scaled(t):
        """floor(((mv - 2) + t) * M / 2**j), carrying limb by limb."""
        carry = (c0 + m0 * t) >> np.uint64(32)
        carry = (c1 + m1 * t + carry) >> np.uint64(32)
        carry = (c2 + m2 * t + carry) >> np.uint64(32)
        l3 = c3 + m3 * t + carry
        return ((l3 & _LOW32) >> down) | ((c4 + (l3 >> np.uint64(32))) << up)

    vr = scaled(np.uint64(2))
    vp = scaled(np.uint64(4))
    vm = scaled(((frac == 0) & (biased > 1)).astype(np.uint64))
    # drop the most digits that leave vp // 10**r above vm // 10**r
    removed = np.zeros(x.size, np.int8)
    for r in range(1, 20):
        more = vp // _POW10[r] > vm // _POW10[r]
        if not more.any():
            break
        removed += more
    scale = _POW10[removed]
    digits = vr // scale
    digits += ((vr - digits * scale >= _HALF[removed])
               | (digits == vm // scale))
    return digits, e10[biased] + removed, general


#: the byte rows of a float cell: sign, "0.000", 17 digits and a point
#: among them (18 rows), and "e+ddd"
_FLOAT_ROWS = 29
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_DIGIT_ROWS = np.arange(18, dtype=np.int8)[:, None]


def _float_rows(x):
    """The cells of the float64 array ``x`` as ``repr`` writes them, one
    column of ``_FLOAT_ROWS`` bytes per value, 0 where a cell is shorter.
    The lanes that ``_shortest`` leaves to Ryu's general case go to
    ``repr``, in one batch."""
    digits, exp10, general = _shortest(x)
    count = np.searchsorted(_POW10, digits, side="right").astype(np.int8)
    point = count + exp10                  # digits before the point
    sci = (point <= -4) | (point > 16)     # repr's exponent form
    lead = ~sci & (point <= 0)             # "0." and -point zeros first
    out = np.zeros((_FLOAT_ROWS, x.size), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    out[1:6] = _LEAD * (lead & (np.arange(5)[:, None] < 2 - point))
    # the digits padded to 17, in rows 1-17 between two 0 rows, worked out
    # from uint32 halves of 9 and 8 digits
    body = np.zeros((19, x.size), np.uint8)
    rest = digits * _POW10[17 - count]
    high = rest // _POW10[9]
    for part, rows in ((rest - high * _POW10[9], range(17, 8, -1)),
                       (high, range(8, 0, -1))):
        part = part.astype(np.uint32)
        for k in rows:
            head = part // np.uint32(10)
            body[k] = part - head * np.uint32(10)
            part = head
    body[1:18] += np.uint8(48)
    body[1:18] *= _DIGIT_ROWS[:17] < count
    # the point goes after the first digit (exponent form) or after
    # `point` digits, which leaves a digit after it: every float with an
    # integer value is a general lane; 18 is no point
    dot = np.where(sci, np.where(count > 1, 1, 18),
                   np.where(lead, 18, point)).astype(np.int8)
    k = _DIGIT_ROWS
    out[6:24] = (body[1:] * (k < dot) + body[:-1] * (k > dot)
                 + np.uint8(46) * (k == dot))
    power = point - 1
    size = np.abs(power)
    out[24] = sci * np.uint8(101)
    out[25] = sci * np.where(power < 0, 45, 43)
    out[26] = (sci & (size >= 100)) * (48 + size // 100)
    out[27] = sci * (48 + size // 10 % 10)
    out[28] = sci * (48 + size % 10)
    if general.any():
        text = np.array(list(map(repr, x[general].tolist())),
                        dtype=f"S{_FLOAT_ROWS}")
        out[:, general] = text.view(np.uint8).reshape(-1, _FLOAT_ROWS).T
    return out


def _int_rows(column):
    """The cells of the integer array ``column`` as byte rows, one column
    per value: a sign row and one row per digit of the largest magnitude,
    0 in place of leading zeros."""
    if column.dtype.kind == "u":
        rest = column.astype(np.uint64)
    else:
        rest = np.abs(column.astype(np.int64)).view(np.uint64)  # -2**63 too
    count = np.maximum(np.searchsorted(_POW10, rest, side="right"), 1)
    width = int(count.max())
    out = np.empty((width + 1, column.size), np.uint8)
    out[0] = (column < 0) * np.uint8(45)
    for k in range(width, 0, -1):
        head = rest // _TEN
        out[k] = rest - head * _TEN
        rest = head
    out[1:] += np.uint8(48)
    out[1:] *= np.arange(width - 1, -1, -1)[:, None] < count
    return out


def _numeric_lines(chunk) -> str:
    """The CSV lines of equal-length float, integer and bool arrays: one
    byte matrix holding every cell and separator, 0 bytes dropped."""
    n = len(chunk[0])
    comma = np.full((1, n), 44, np.uint8)
    rows = []
    for column in chunk:
        if column.dtype.kind == "f":
            rows.append(_float_rows(
                np.ascontiguousarray(column, dtype=np.float64)))
        elif column.dtype.kind == "b":
            rows.append(column.astype(np.uint8)[None] + np.uint8(48))
        else:
            rows.append(_int_rows(column))
        rows.append(comma)
    rows[-1] = np.full((1, n), 10, np.uint8)
    matrix = np.ascontiguousarray(np.concatenate(rows).T)
    return matrix[matrix != 0].tobytes().decode("ascii")


def write_columns(fh, header, columns):
    """Write ``header`` and the rows of equal-length ``columns`` to ``fh``,
    byte for byte as ``csv.writer(fh, lineterminator="\\n")`` would, with
    the cells of ``_format_cell``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    # numeric arrays never need quoting; the byte path reads floats as
    # float64 and integers in 64 bits, so wider dtypes take csv.writer
    numeric = all(isinstance(column, np.ndarray)
                  and column.dtype.kind in "fbiu"
                  and column.dtype.itemsize <= 8 for column in columns)
    n = min(map(len, columns), default=0)
    for lo in range(0, n, CHUNK_ROWS):
        chunk = [column[lo:min(lo + CHUNK_ROWS, n)] for column in columns]
        if numeric:
            fh.write(_numeric_lines(chunk))
        else:
            writer.writerows(zip(*map(cells, chunk)))

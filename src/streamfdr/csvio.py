"""Chunked CSV reading and writing for the numeric tables of the CLI.

Reading.  ``read_header`` reads the header with ``csv.reader``.
``read_columns`` then reads the body ``CHUNK_ROWS`` lines at a time.  A
chunk is *plain* when its lines hold no quote, no carriage return and none
of the separators ``\\x1c``-``\\x1f``, which numpy strips from a cell as
whitespace and Python refuses (``_plain_cells``, six substring searches).
A plain chunk's lines go to the reader's fast parser, which parses them
with one call of numpy's C reader (``parse_columns``).  That reader reads
every cell of a line, a cell that no parser names as a one-character text
field that is dropped, so it refuses a line with a cell too many or too
few.  On plain lines it accepts a cell only when Python's ``int`` or
``float`` accepts it, and then gives the same value, bit for bit; it
refuses a few cells that Python accepts, such as ``1_0`` and integers
beyond int64.  When a chunk is not plain, or the fast parser rejects it
(such a cell, a cell that does not parse, a line of another width, or a
check of its own such as a gap in ``t``), that chunk and the rest of the
file go to the reader's row loop over ``csv.reader``.  The row loop is the
reference: it handles quoting, CRLF line ends, extra trailing cells and
forward fill, and it names the first bad row by its file-wide number.
Apart from the parsed columns, memory is bounded by one chunk.

``read_table`` is the one fast parser and row loop of the t-indexed tables
(``detect``'s p-value streams, ``verify``'s decision logs): it holds their
rules for ``t``, ``reject`` (``flag``) and labels (``label``) and names a
bad row.  ``forecaster.ingest_csv`` keeps its own row loop, but parses
plain chunks by ``parse_columns`` and reads ``label``.

Writing.  ``write_columns`` writes the header with ``csv.writer`` and the
body byte for byte as ``csv.writer(fh, lineterminator="\\n")`` would,
floats exactly as ``repr`` writes them.  A table of float, integer and
bool arrays, which never need quoting, is written ``NUMERIC_ROWS`` rows at
a time (``_numeric_lines``): each chunk is one zeroed byte matrix, a row
per byte of a cell or separator and a column per line, that each array
fills in place; the rows no line of the chunk uses (a sign when nothing is
negative, leading zeros, an exponent) are dropped before the transpose,
the 0 bytes after it, and the ASCII goes straight to the file's binary
buffer.  Float cells take Ryu's shortest round-trip digits, computed in
uint64 lanes with integer arithmetic only (``_shortest``) and laid out as
``repr`` lays them out (``_float_rows``).  Only the lanes outside Ryu's
common case call ``repr``, in one batch per chunk: 0.0, subnormals, inf,
nan, |x| >= 2**54 and mantissas with at least q trailing zero bits, every
integer-valued float among them.  A table holding any other column goes
through ``csv.writer`` ``CHUNK_ROWS`` rows at a time, its cells made by
``cells``.
"""

from __future__ import annotations

import codecs
import csv
import functools
import itertools
import warnings

import numpy as np

#: lines per chunk read, and rows per chunk written through csv.writer
CHUNK_ROWS = 4096
#: rows per chunk of an all-numeric table, written as bytes; its
#: temporaries stay near 5 MB
NUMERIC_ROWS = 1 << 14


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


def parse_columns(lines, width, columns):
    """The columns of a plain chunk (its ``lines``, ``width`` cells to a
    line), parsed by one call of numpy's C reader.

    ``columns`` lists (index, parser) pairs; the parser ``int`` or
    ``float`` gives an int64 or float64 array, ``flag`` or ``label`` a bool
    array.  The reader parses every cell: one that no parser names is read
    as a one-character text field and dropped.  On the lines
    ``_plain_cells`` lets through, it accepts a cell only when Python's
    ``int`` or ``float`` does, and then gives the same value.  Raises
    ValueError on a cell that it or ``parser`` refuses, on a line with a
    cell too many or too few, and on a blank line, which the reader would
    skip.
    """
    fields = ["U1"] * width
    for i, parse in columns:
        fields[i] = _FIELDS[parse]
    dtype = [(f"c{i}", field) for i, field in enumerate(fields)]
    with warnings.catch_warnings():
        # numpy before 2.0 reads an int cell such as 1.0 through float,
        # with a DeprecationWarning; int() refuses it
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None,
                               quotechar=None, dtype=dtype, ndmin=1)
        except Warning as exc:
            raise ValueError(str(exc)) from None
    if table.size != len(lines):
        raise ValueError("a line is blank")
    out = []
    for i, parse in columns:
        values = table[f"c{i}"]
        if parse is flag:
            values = values != 0
        elif parse is label:
            if not np.isfinite(values).all():
                raise ValueError("a label has no integer part")
            values = np.trunc(values) != 0.0
        out.append(values)
    return out


#: what makes a chunk not plain: csv quoting, a carriage return, and the
#: separators \x1c-\x1f, which numpy's reader strips from a cell and
#: Python's int and float refuse
_NOT_PLAIN = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _plain_cells(lines):
    """Raise ValueError unless the cells of a chunk's ``lines`` are plain:
    free of ``_NOT_PLAIN`` and none longer than ``csv`` reads."""
    text = "".join(lines)
    for char in _NOT_PLAIN:
        if char in text:
            raise ValueError("a line is not plain")
    # no line is longer than csv's field limit: from each line's start,
    # the next `limit` characters hold its end, or all the text left
    limit = csv.field_size_limit()
    start = 0
    while len(text) - start > limit:
        end = text.rfind("\n", start, start + limit)
        if end < 0:
            raise ValueError("a line may be too long for csv")
        start = end + 1


def _raising(exc):
    """An iterator that raises ``exc`` when it is read."""
    raise exc
    yield


def read_columns(fh, fast, slow):
    """Read the data rows of ``fh`` (positioned after its header) into
    column arrays.

    ``fast(lines, first_row)`` parses one plain chunk, given as its lines,
    and returns a sequence of arrays; it raises ValueError or
    OverflowError to hand the chunk over to ``slow``.
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
                    _plain_cells(lines)
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
        t, *parsed = parse_columns(lines, width,
                                   [(i, p) for _, i, p in columns])
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

    return read_columns(fh, fast, slow)


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
    array ``x``, the closest to it among them: (digits, exponent, count,
    general) with value = digits * 10**exponent and ``count`` the number of
    digits, by the common case of Ryu (Adams, "Ryu: fast float-to-string
    conversion", PLDI 2018) in uint64 lanes.

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
               | (digits == vm // scale))     # so digits >= 1, as vr >= vm
    # the count of digits: floor(log10(2**b)) + 1 for b = floor(log2(digits)),
    # read off its float64 exponent (rounding up to 2**(b + 1) passes no
    # power of 10), and one more where digits reaches the next power of 10
    log2 = (digits.astype(np.float64).view(np.uint64)
            >> np.uint64(52)).astype(np.int32) - 1023
    count = np.minimum((log2 * 78913 >> 18) + 1, 19)
    count += digits >= _POW10[count]
    return digits, e10[biased] + removed, count.astype(np.int8), general


#: the byte rows of a float cell: sign, "0.000", 17 digits and a point
#: among them (18 rows), and "e+ddd"
_FLOAT_ROWS = 29
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_LEAD_ROWS = np.arange(5, dtype=np.int8)[:, None]
_DIGIT_ROWS = np.arange(18, dtype=np.int8)[:, None]


def _float_rows(x, out=None):
    """The cells of the float64 array ``x`` as ``repr`` writes them, one
    column of ``_FLOAT_ROWS`` bytes per value, 0 where a cell is shorter,
    written into ``out`` (a zeroed uint8 array of that shape) or a new
    array, which is returned.  Rows that no value takes are left 0: the
    sign when none is negative, "0.000" when none has leading zeros, and
    "e+ddd" when none takes the exponent form.  The lanes that
    ``_shortest`` leaves to Ryu's general case go to ``repr``, in one
    batch."""
    digits, exp10, count, general = _shortest(x)
    point = count + exp10                  # digits before the point
    sci = (point <= -4) | (point > 16)     # repr's exponent form
    lead = ~sci & (point <= 0)             # "0." and -point zeros first
    if out is None:
        out = np.zeros((_FLOAT_ROWS, x.size), np.uint8)
    negative = np.signbit(x)
    if negative.any():
        np.multiply(negative, np.uint8(45), out=out[0])
    if lead.any():
        np.multiply(_LEAD, lead & (_LEAD_ROWS < 2 - point), out=out[1:6])
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
            np.subtract(part, head * np.uint32(10), out=body[k],
                        casting="unsafe")
            part = head
    body[1:18] += np.uint8(48)
    body[1:18] *= _DIGIT_ROWS[:17] < count
    # the point goes after the first digit (exponent form) or after
    # `point` digits, which leaves a digit after it: every float with an
    # integer value is a general lane; 18 is no point
    dot = np.where(sci, np.where(count > 1, 1, 18),
                   np.where(lead, 18, point)).astype(np.int8)
    number = out[6:24]
    np.multiply(body[1:], _DIGIT_ROWS < dot, out=number)
    shifted = np.multiply(body[:-1], _DIGIT_ROWS > dot)
    number += shifted
    number += np.multiply(_DIGIT_ROWS == dot, np.uint8(46), out=shifted)
    if sci.any():
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


def _int_height(column) -> int:
    """The byte rows of the cells of the integer array ``column``: a sign
    row and one row per digit of its largest magnitude."""
    return 1 + len(str(max(int(column.max()), -int(column.min()))))


def _int_rows(column, out):
    """Write the cells of the integer array ``column`` into ``out``, a
    zeroed uint8 array of ``_int_height(column)`` rows and one column per
    value, 0 in place of leading zeros; the sign row stays 0 when no value
    is negative."""
    if column.dtype.kind == "u":
        rest = column.astype(np.uint64)
    else:
        rest = np.abs(column.astype(np.int64)).view(np.uint64)  # -2**63 too
    negative = column < 0
    if negative.any():
        np.multiply(negative, np.uint8(45), out=out[0])
    count = np.maximum(np.searchsorted(_POW10, rest, side="right"), 1)
    width = out.shape[0] - 1
    for k in range(width, 0, -1):
        head = rest // _TEN
        np.subtract(rest, head * _TEN, out=out[k], casting="unsafe")
        rest = head
    out[1:] += np.uint8(48)
    out[1:] *= np.arange(width - 1, -1, -1)[:, None] < count


def _numeric_lines(chunk) -> bytes:
    """The CSV lines of equal-length float, integer and bool arrays, as
    ASCII: one zeroed byte matrix, a row per byte of a cell or separator
    and a column per line, which each array fills in place.  Its rows that
    no line uses are dropped before the transpose, and its 0 bytes after."""
    heights = [_FLOAT_ROWS if column.dtype.kind == "f"
               else 1 if column.dtype.kind == "b"
               else _int_height(column) for column in chunk]
    matrix = np.zeros((sum(heights) + len(chunk), len(chunk[0])), np.uint8)
    row = 0
    for column, height in zip(chunk, heights):
        block = matrix[row:row + height]
        if column.dtype.kind == "f":
            _float_rows(np.ascontiguousarray(column, dtype=np.float64),
                        out=block)
        elif column.dtype.kind == "b":
            np.add(column.view(np.uint8), np.uint8(48), out=block[0])
        else:
            _int_rows(column, block)
        row += height
        matrix[row] = 44
        row += 1
    matrix[-1] = 10
    lines = np.ascontiguousarray(matrix[matrix.any(axis=1)].T)
    return lines[lines != 0].tobytes()


def _byte_writer(fh):
    """A function that writes ASCII bytes to the text file ``fh``: to its
    binary buffer, after flushing the text, when ``fh`` encodes ASCII as
    itself, else decoded."""
    buffer = getattr(fh, "buffer", None)
    if buffer is not None and codecs.lookup(fh.encoding).name in (
            "utf-8", "ascii"):
        fh.flush()
        return buffer.write
    return lambda data: fh.write(data.decode("ascii"))


def write_columns(fh, header, columns):
    """Write ``header`` and the rows of equal-length ``columns`` to ``fh``,
    a text file opened with ``newline=""`` as ``csv`` needs, byte for byte
    as ``csv.writer(fh, lineterminator="\\n")`` would, with the cells of
    ``_format_cell``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    # numeric arrays never need quoting; the byte path reads floats as
    # float64 and integers in 64 bits, so wider dtypes take csv.writer
    numeric = all(isinstance(column, np.ndarray)
                  and column.dtype.kind in "fbiu"
                  and column.dtype.itemsize <= 8 for column in columns)
    n = min(map(len, columns), default=0)
    if numeric:
        write = _byte_writer(fh)
        for lo in range(0, n, NUMERIC_ROWS):
            hi = min(lo + NUMERIC_ROWS, n)
            write(_numeric_lines([column[lo:hi] for column in columns]))
        return
    for lo in range(0, n, CHUNK_ROWS):
        chunk = [column[lo:min(lo + CHUNK_ROWS, n)] for column in columns]
        writer.writerows(zip(*map(cells, chunk)))

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
body ``CHUNK_ROWS`` rows at a time: each column's slice is formatted by
``cells`` and the chunk is built with ``",".join`` and ``"\\n".join``.  Numeric
arrays never need quoting; a chunk with a text cell that ``csv.writer``
might quote goes through ``csv.writer``, so the bytes are always those of
``csv.writer(fh, lineterminator="\\n")``.
"""

from __future__ import annotations

import csv
import itertools
import warnings

import numpy as np

#: rows per chunk, for reading and for writing
CHUNK_ROWS = 4096

#: characters that can make ``csv.writer`` quote a cell
_QUOTED = (",", '"', "\n", "\r")


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
    """One column's CSV cells, by the rules of ``_format_cell``: numpy float
    arrays by repr, numpy bool and integer arrays as integers, anything else
    cell by cell."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, column.tolist()))
        if column.dtype.kind == "b":
            return np.where(column, "1", "0").tolist()
        if column.dtype.kind in "iu":
            return list(map(str, column.astype(np.int64).tolist()))
    return list(map(_format_cell, column))


def write_columns(fh, header, columns):
    """Write ``header`` and the rows of equal-length ``columns`` to ``fh``,
    byte for byte as ``csv.writer(fh, lineterminator="\\n")`` would."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    # numeric arrays never need quoting; the other columns are checked
    texts = [k for k, column in enumerate(columns)
             if not (isinstance(column, np.ndarray)
                     and column.dtype.kind in "fbiu")]
    for lo in range(0, min(map(len, columns), default=0), CHUNK_ROWS):
        chunk = [cells(column[lo:lo + CHUNK_ROWS]) for column in columns]
        text = "".join(cell for k in texts for cell in chunk[k])
        # a lone empty cell is quoted, to tell its row from a blank line
        if len(columns) < 2 or any(ch in text for ch in _QUOTED):
            writer.writerows(zip(*chunk))
        else:
            fh.write("\n".join(map(",".join, zip(*chunk))))
            fh.write("\n")

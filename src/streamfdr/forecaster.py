"""Naive rolling-Gaussian scorer: raw time-series CSVs to p-value streams.

Each row's p-value is computed against a Gaussian fitted on the previous
``window`` rows only (sample mean, unbiased sample standard deviation), so
the score at time t uses strictly past data.  Rows without a full window of
history emit p = 1 and can never be rejected.  For multi-dimensional series
the per-dimension p-values are combined by a row-wise minimum with no
multiplicity correction; that deliberately mirrors how coarse a practical
scorer can be, and the decision rules downstream are what is under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import csvio
from .simulation import SIDEDNESS, to_pvalue

SD_FLOOR = 1e-12
#: window cells per block of the rolling fit, which bounds its temporaries
_BLOCK_CELLS = 1 << 18


@dataclass
class SeriesFrame:
    """Rectangular multivariate series with an optional per-row label."""

    values: np.ndarray            # shape (rows, dims)
    columns: list
    labels: Optional[np.ndarray] = None   # True = anomalous row

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-d (rows x dims)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError("labels must have one entry per row")

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_dims(self) -> int:
        return int(self.values.shape[1])

    def anomaly_fraction(self) -> Optional[float]:
        if self.labels is None:
            return None
        return float(self.labels.mean()) if self.n_rows else 0.0


#: what ``float()`` (and so ``csvio.label``) strips from a cell: the
#: characters of ``str.isspace``, less the separators \x1c-\x1f, which it
#: refuses
_SPACE = ("\t\n\x0b\x0c\r \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
          "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f"
          "\u3000")


def ingest_csv(path, value_columns: Optional[Sequence[str]] = None,
               label_column: Optional[str] = None,
               forward_fill: bool = False) -> SeriesFrame:
    """Parse a headered CSV into a SeriesFrame.

    Malformed rows raise with their 1-based data row number.  Empty cells
    are errors unless ``forward_fill`` is set, in which case the previous
    row's value is carried forward (there is nothing to carry on row 1).
    """
    with open(path, newline="") as fh:
        header = csvio.read_header(fh)
        if value_columns is None:
            value_columns = [h for h in header if h != label_column]
        missing = [c for c in value_columns if c not in header]
        if missing:
            raise ValueError(f"{path}: columns not found: {missing}")
        if label_column is not None and label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not found")
        value_idx = [header.index(c) for c in value_columns]
        label_idx = header.index(label_column) if label_column else None
        width = len(header)

        columns = [(idx, float) for idx in value_idx]
        if label_idx is not None:
            columns.append((label_idx, csvio.label))

        def fast(lines, first):
            parsed = csvio.parse_columns(lines, columns)
            values = np.column_stack(parsed[:len(value_idx)])
            if not np.isfinite(values).all():   # the row loop fills or refuses
                raise ValueError("a value is not finite")
            return (values, *parsed[len(value_idx):])

        def slow(reader, first, parts):
            prev = parts[-1][0][-1].tolist() if parts else None
            rows, labels = [], []
            for rowno, cells in enumerate(reader, start=first):
                if len(cells) != width:
                    raise ValueError(
                        f"{path}: row {rowno}: expected {width} cells, "
                        f"got {len(cells)}")
                parsed = []
                for col, idx in zip(value_columns, value_idx):
                    text = cells[idx].strip(_SPACE)
                    if text == "" or text.lower() == "nan":
                        if forward_fill and prev is not None:
                            parsed.append(prev[len(parsed)])
                            continue
                        raise ValueError(
                            f"{path}: row {rowno}: missing value in column "
                            f"{col!r}"
                            + ("" if forward_fill
                               else " (forward fill disabled)"))
                    try:
                        value = float(text)
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {rowno}: bad number "
                            f"{csvio.quote(text)} in column {col!r}") from None
                    if not np.isfinite(value):
                        if forward_fill and prev is not None:
                            parsed.append(prev[len(parsed)])
                            continue
                        raise ValueError(
                            f"{path}: row {rowno}: non-finite value in "
                            f"column {col!r}")
                    parsed.append(value)
                rows.append(parsed)
                prev = parsed
                if label_idx is not None:
                    text = cells[label_idx].strip(_SPACE)
                    try:
                        labels.append(csvio.label(text))
                    except (ValueError, OverflowError):   # inf has no int
                        raise ValueError(f"{path}: row {rowno}: bad label "
                                         f"{csvio.quote(text)}") from None
            values = np.asarray(rows, dtype=np.float64).reshape(
                len(rows), len(value_columns))
            if label_idx is None:
                return (values,)
            return values, np.asarray(labels, dtype=bool)

        values, *labels = csvio.read_columns(fh, width, fast, slow)
    return SeriesFrame(values=values, columns=list(value_columns),
                       labels=labels[0] if labels and len(values) else None)


def rolling_gaussian_pvalues(series, window: int, sidedness: str = "two",
                             sd_floor: float = SD_FLOOR) -> np.ndarray:
    """P-values of each point against a Gaussian fitted on the previous
    ``window`` points.

    The first ``window`` rows carry p = 1 (warm-up).  Windows with (near)
    zero spread use ``sd_floor`` as the scale, so a point equal to a
    constant history scores p = 1 and a point far from it scores ~0.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-d")
    if window < 2:
        raise ValueError("window must be at least 2")
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    n = x.size
    p = np.ones(n, dtype=np.float64)
    if n <= window:
        return p
    windows = sliding_window_view(x, window)[:-1]    # history for rows window..n-1
    mean = np.empty(n - window)
    sd = np.empty(n - window)
    # block by block: each window's sums are the same as in one pass
    rows = max(1, _BLOCK_CELLS // window)
    for lo in range(0, n - window, rows):
        block = windows[lo:lo + rows]
        mean[lo:lo + rows] = block.mean(axis=-1)
        sd[lo:lo + rows] = block.std(axis=-1, ddof=1)
    sd = np.maximum(sd, sd_floor)
    resid = (x[window:] - mean) / sd
    p[window:] = to_pvalue(resid, sidedness)
    return p


def min_across_dims(pvalues) -> np.ndarray:
    """Row-wise minimum of per-dimension p-value sequences."""
    if isinstance(pvalues, np.ndarray) and pvalues.ndim == 2:
        return pvalues.min(axis=1)
    arrays = [np.asarray(col, dtype=np.float64) for col in pvalues]
    if not arrays:
        raise ValueError("need at least one dimension")
    length = arrays[0].size
    for i, col in enumerate(arrays):
        if col.ndim != 1 or col.size != length:
            raise ValueError(
                f"ragged input: dimension {i} has length {col.size}, "
                f"expected {length}")
    return np.min(np.stack(arrays, axis=1), axis=1)


def score_frame(frame: SeriesFrame, window: int,
                sidedness: str = "two") -> np.ndarray:
    """Min-over-dimensions rolling-Gaussian p-values for a whole frame."""
    per_dim = [rolling_gaussian_pvalues(frame.values[:, d], window, sidedness)
               for d in range(frame.n_dims)]
    return min_across_dims(per_dim)

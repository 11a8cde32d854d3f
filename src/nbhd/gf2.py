"""Sparse GF(2) column reduction.

The caller gives each column, and the right-hand side, as the set of its
nonzero rows, so its size follows its nonzeros, not its highest row.
Columns are reduced in the order given, and reduced columns are kept in a
pivot table keyed by their largest row, as in the standard reduction of
persistence software (Chen & Kerber 2011; Bauer 2021).
"""

from __future__ import annotations


def _reduce(pivots, v):
    """Reduce the row set ``v`` in place against ``pivots`` and insert what
    is left; return it (empty exactly when ``v`` lies in the span of the
    table)."""
    while v:
        top = max(v)
        p = pivots.get(top)
        if p is None:
            pivots[top] = v
            break
        v ^= p
    return v


def in_column_space(columns, rhs, pivot_rows):
    """Is the row set ``rhs`` a GF(2) combination of ``columns``, an iterable
    of row sets?  Both are reduced in place.  The pivot row of every column
    the reduction keeps is added to the set ``pivot_rows``, so their number
    is the rank."""
    pivots = {}
    for col in columns:
        _reduce(pivots, col)
    pivot_rows.update(pivots)
    return not _reduce(pivots, rhs)

"""Sparse GF(2) column reduction.

Each column is the set of its nonzero rows, so its size follows its
nonzeros, not its highest row.  Reduced columns are kept in a pivot table
keyed by their largest row, as in the standard reduction of persistence
software (Chen & Kerber 2011; Bauer 2021).
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


def in_column_space(n_cols, ones, rhs, pivot_rows=None):
    """Is the 0/1 vector ``rhs`` a GF(2) combination of the columns of the
    sparse matrix given by the ``(row, col)`` pairs in ``ones``?  When
    ``pivot_rows`` is a set, the pivot row of every column the reduction of
    the matrix keeps is added to it, so their number is the rank."""
    cols = [set() for _ in range(n_cols)]
    for r, c in ones:
        cols[c].add(r)
    pivots = {}
    for col in cols:
        _reduce(pivots, col)
    if pivot_rows is not None:
        pivot_rows.update(pivots)
    return not _reduce(pivots, {i for i, b in enumerate(rhs) if b & 1})

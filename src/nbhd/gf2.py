"""Sparse GF(2) column reduction.

Each column is one Python int whose bit ``i`` is row ``i``.  Reduced columns
are kept in a pivot table keyed by their highest set bit, as in the standard
reduction of persistence software (Chen & Kerber 2011; Bauer 2021).
"""

from __future__ import annotations


def _columns(n_cols, ones):
    cols = [0] * n_cols
    for r, c in ones:
        cols[c] |= 1 << r
    return cols


def _reduce(pivots, v):
    """Reduce ``v`` against ``pivots`` and insert what is left; return it
    (zero exactly when ``v`` lies in the span of the table)."""
    while v:
        top = v.bit_length()
        p = pivots.get(top)
        if p is None:
            pivots[top] = v
            break
        v ^= p
    return v


def rank_sparse(n_rows, n_cols, ones):
    """GF(2) rank of the matrix whose 1 entries are the ``(row, col)`` pairs
    in ``ones``."""
    pivots = {}
    return sum(1 for col in _columns(n_cols, ones) if _reduce(pivots, col))


def in_column_space(n_rows, n_cols, ones, rhs):
    """Is the 0/1 vector ``rhs`` (length n_rows) a GF(2) combination of the
    columns of the sparse matrix given by ``ones``?"""
    pivots = {}
    for col in _columns(n_cols, ones):
        _reduce(pivots, col)
    return not _reduce(pivots, sum(1 << i for i, b in enumerate(rhs) if b & 1))

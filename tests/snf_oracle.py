"""Reference oracle: Smith normal form by the dense textbook reduction.

Each step pivots on an entry of least absolute value, clears its row and
column by division with remainder, promotes any remainder to pivot, and
adds a row whose entries the pivot does not divide until it divides all of
them.  The library runs a sparse unit pass and a sparse non-unit pass
instead; the tests compare the two.
"""

from __future__ import annotations


def textbook_snf(rows):
    """Factors and rank of a dense integer matrix, reduced by the textbook
    algorithm alone."""
    factors = [f for f in snf_dense([list(r) for r in rows]) if f]
    return tuple(factors), len(factors)


def snf_dense(a):
    """Textbook Smith reduction of a small dense block; returns the nonzero
    diagonal entries (absolute, divisibility-chained)."""
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < m and t < n:
        pi = pj = -1
        pv = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (not pv or abs(v) < abs(pv)):
                    pi, pj, pv = i, j, v
        if not pv:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            p = a[t][t]
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        at = a[t]
                        a[i] = [x - q * y for x, y in zip(a[i], at)]
                    if a[i][t]:
                        # remainder strictly smaller than |p|: promote it
                        a[t], a[i] = a[i], a[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        a[t][j] -= q * p  # column is clear below the pivot
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            p = a[t][t]
            bad = -1
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            at = a[t]
            a[t] = [x + y for x, y in zip(at, a[bad])]
        factors.append(abs(a[t][t]))
        t += 1
    return factors

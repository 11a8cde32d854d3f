"""Reference oracle: swap heights on orbit faces kept as vertex tuples.

This is how nbhd read heights before its faces became sheet masks:
``box_faces`` grows each face by tuple concatenation, and ``height`` cuts
each facet out of its face by slicing, maps a front facet that starts on an
odd vertex to its image vertex by vertex, and reads the cup power in a
second pass over the face.  The code is kept verbatim; the tests compare the
levels, the heights and every GF(2) reduction with the mask path.
"""

from __future__ import annotations

import math
from collections import defaultdict

from nbhd import gf2
from nbhd.complexes import DEFAULT_FACE_LIMIT, _face_levels
from nbhd.errors import ResourceLimitError
from nbhd.z2 import _orbit_labelled


def box_faces(balls, limit=None):
    """Orbit faces of the box complex B(G_r) under its sheet swap, one
    lexicographic list per dimension (Matousek & Ziegler 2004): A x {0} +
    B x {1} with B in ``balls[a]``, the exact-r walk ball, for each a in A and
    both common balls CN(A), CN(B) nonempty (CN of no vertex is every vertex).
    Vertex 2i + s is the i-th vertex with a nonempty ball, on sheet s; each
    orbit is its face starting on an even vertex, made and counted once."""
    cap = DEFAULT_FACE_LIMIT if limit is None else limit
    slot = {x: i for i, x in enumerate(x for x in range(len(balls)) if balls[x])}
    masks = [sum(1 << slot[y] for y in balls[x]) for x in slot]
    # a level holds (face, CN of sheet 0, CN of sheet 1) as bit masks
    level = [((2 * i,), m, (1 << len(masks)) - 1) for i, m in enumerate(masks)]
    if len(level) > cap:
        raise ResourceLimitError("orbit-face enumeration", cap + 1, "faces", cap)
    room = cap
    while level:
        yield [face for face, _, _ in level]
        room -= len(level)
        nxt = []
        for face, c0, c1 in level:
            v = face[-1]
            # a new vertex lies in the other sheet's common ball and keeps
            # its own sheet's nonempty; candidates go lowest slot first
            cand = (c0 | c1) >> (v >> 1) << (v >> 1)
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                m = masks[i]
                if 2 * i > v and c1 & low and c0 & m:
                    nxt.append((face + (2 * i,), c0 & m, c1))
                if 2 * i + 1 > v and c0 & low and c1 & m:
                    nxt.append((face + (2 * i + 1,), c0, c1 & m))
                if len(nxt) > room:
                    raise ResourceLimitError("orbit-face enumeration", cap + 1, "faces", cap)
        level = nxt


def height(levels, cap=math.inf):
    """min(height, cap) from ``levels``, the orbit faces one dimension at a
    time, each orbit {f, t(f)} given as its face f that starts on an even
    vertex; t keeps the order in a face, so the i-th, front and back faces
    of the orbit are those of f.  w^k is tested on the k-skeleton, read only
    when the loop reaches it, as H^k of the whole injects into H^k of the
    skeleton, and only the (k-1)- and k-faces are held.  The pivot rows of
    each reduction are cleared columns one dimension up: such a row tops a
    reduced cocycle, so its coboundary lies in the span of the lower rows'
    (de Silva, Morozov & Vejdemo-Johansson 2011).

    w^k is read in closed form.  An orbit edge (a, b) lifts from sheet a & 1
    of a's orbit to sheet b & 1 of b's, so w(a, b) = (a ^ b) & 1, which t
    keeps: either member of an orbit gives the same value.  The front/back
    cup power of w on a k-face f is the product of w over its consecutive
    vertices, so w^k(f) = 1 exactly when f alternates sheets at every step."""
    height, cleared, lower = 0, set(), next(levels, None)
    while height < cap and (upper := next(levels, None)):
        k = height + 1
        # the coboundary of the (k-1)-faces less the cleared ones, a row set
        # per (k-1)-face; only f's front facet can start on an odd vertex, and
        # then its orbit is given by its image
        cols = defaultdict(set)
        for r, f in enumerate(upper):
            for i in range(k + 1):
                g = f[:i] + f[i + 1:]
                if g[0] & 1:
                    g = tuple(v ^ 1 for v in g)
                if g not in cleared:
                    cols[g].add(r)
        power = {r for r, f in enumerate(upper)
                 if all((f[i] ^ f[i + 1]) & 1 for i in range(k))}
        pivots = set()
        # columns in the (k-1)-faces' order: any order gives the same answer,
        # but the order the facets are first met in reduced K(9,3) r=1 half
        # as fast
        if gf2.in_column_space((cols[g] for g in lower if g in cols), power, pivots):
            break
        height, cleared, lower = k, {upper[p] for p in pivots}, upper
    return height


def orbit_levels(K, t):
    """The orbit faces of ``K`` under the free involution ``t``, as
    ``z2_height`` reads them, one list of vertex tuples per dimension."""
    return _face_levels(_orbit_labelled(K, t), range(0, K.n_vertices, 2), None,
                        "orbit-face enumeration")

"""Command-line front end.

Every subcommand produces a run report that echoes the arguments it parsed
(``--limit-faces`` under ``limits``); ``--json`` prints it as JSON (stable key
order), otherwise a short human summary is shown.  Exit codes: 0 success, 2
input error, 3 resource limit, 4 freeness precondition violated, 1
cross-oracle inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from math import comb

from .complexes import (
    DEFAULT_FACE_LIMIT,
    DEFAULT_POSET_GUARD,
    complex_from_json_obj,
    complex_to_json_obj,
    neighborhood_complex,
    pair_poset,
)
from .errors import ConsistencyError, FreenessError, ResourceLimitError
from .graphs import (
    DEFAULT_BUDGET,
    graph_from_json_obj,
    hom_search,
    load_graph,
    make_kneser,
    odd_girth,
    parse_edge_list,
    validate_hom,
)
from .homology import homology
from .morse import collapse_cycle_tower, cycle_matching
from .z2 import _kneser_sphere_radius, obstruction_check

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_FREENESS = 4


def _girth_str(value):
    return "infinite" if value == math.inf else value


def _cmd_girth(args):
    g = load_graph(args.graph)
    val = _girth_str(odd_girth(g))
    return {"odd_girth": val}, [f"odd girth: {val}"]


def _cmd_complex(args):
    g = load_graph(args.graph)
    K = neighborhood_complex(g, args.r)
    K.faces(args.limit_faces)  # enforce the guard before reporting
    result = {"facet_count": len(K.facets), "dim": K.dim}
    lines = [f"facets: {len(K.facets)}", f"dimension: {K.dim}"]
    _write_or_embed(complex_to_json_obj(K), args.out, result, "complex", lines)
    return result, lines


def _write_or_embed(obj, out, result, key, lines):
    """Write ``obj`` as JSON to the file ``out`` and say so in ``lines``, or
    without ``out`` embed it in ``result`` under ``key``."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(f"wrote {out}")
    else:
        result[key] = obj


def _load_complex_or_graph(path, r):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    obj = json.loads(text) if text.lstrip().startswith("{") else None
    if obj is not None and "facets" in obj:
        return complex_from_json_obj(obj)
    if r is None:
        raise ValueError("graph input needs -r to pick the neighborhood radius")
    g = parse_edge_list(text) if obj is None else graph_from_json_obj(obj)
    return neighborhood_complex(g, r)


def _cmd_homology(args):
    K = _load_complex_or_graph(args.file, args.r)
    h = homology(K, args.limit_faces)
    result = {"homology": h.to_json_obj()}
    lines = []
    for row in h.to_json_obj():
        tors = "".join(f" + Z/{t}" for t in row["torsion"])
        lines.append(f"H_{row['dim']}: Z^{row['betti']}{tors}")
    return result, lines


def _cmd_bposet(args):
    g = load_graph(args.graph)
    P = pair_poset(g, args.r, size_guard=args.guard)
    result = {"element_count": P.n_elements, "cover_count": len(P.covers)}
    lines = [f"elements: {P.n_elements}", f"covers: {len(P.covers)}"]
    _write_or_embed(P.to_json_obj(), args.out, result, "poset", lines)
    return result, lines


def _cmd_obstruct(args):
    g = load_graph(args.source)
    h = load_graph(args.target)
    rep = obstruction_check(g, h, args.r, exact=args.exact, budget=args.budget,
                            limit=args.limit_faces)
    search = hom_search(g, h, args.budget)
    if rep.verdict == "NO-MAP" and search.found:
        raise ConsistencyError(
            "obstruction says NO-MAP but the exhaustive search found a map"
        )
    result = {
        "obstruction": rep.to_json_obj(),
        "search": {"status": search.status, "expansions": search.expansions},
    }
    lines = [
        f"verdict: {rep.verdict} (lhs {rep.lhs['bound']} via {rep.lhs['rule']}, "
        f"rhs {rep.rhs['bound']} via {rep.rhs['rule']})",
        f"exhaustive search: {search.status}",
    ]
    return result, lines


def _cmd_morse(args):
    # the tower checks m, r and each stage's limit before it builds a matching
    final, stages = collapse_cycle_tower(args.m, args.r, args.limit_faces)
    matching = cycle_matching(args.m, args.r)
    report = stages[0]["verification"]
    h = homology(final, args.limit_faces)
    result = {
        "matching": matching.to_json_obj(),
        "verification": report,
        "stages": stages,
        "final_facets": [list(final.face_labels(f)) for f in final.facets],
        "homology": h.to_json_obj(),
    }
    lines = [f"top matching: {len(matching.pairs)} pairs, perfect={report['perfect']}"]
    lines += [f"stage r={s['radius']}: {s['pairs']} pairs, acyclic" for s in stages]
    lines.append(f"final complex: {len(final.facets)} facets, betti {h.betti_vector}")
    return result, lines


def _cmd_kneser_table(args):
    rows = []
    cells = 0
    for n in range(args.n_min, args.n_max + 1):
        for k in range(args.k_min, min(args.k_max, n) + 1):
            cells += comb(n, k)
            if cells > args.limit_cells:
                raise ResourceLimitError("kneser-table", cells, "vertices",
                                         args.limit_cells)
            g = make_kneser(n, k)
            bfs = odd_girth(g)
            formula = 2 * math.ceil(k / (n - 2 * k)) + 1 if n > 2 * k else math.inf
            if formula != bfs:
                raise ConsistencyError(
                    f"odd girth mismatch for ({n},{k}): formula {formula}, search {bfs}"
                )
            r = _kneser_sphere_radius(n, k)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "vertices": comb(n, k),
                    "odd_girth": _girth_str(bfs),
                    "odd_girth_formula": _girth_str(formula),
                    "r": r,
                    "certificate": bool(r),  # kneser_certificate takes r >= 1
                }
            )
    lines = ["   n  k  |V|  girth  r  certificate"]
    for row in rows:
        lines.append(
            f"  {row['n']:>2} {row['k']:>2} {row['vertices']:>4}  "
            f"{str(row['odd_girth']):>5}  {str(row['r'] if row['r'] is not None else '-'):>1}  "
            f"{'active' if row['certificate'] else '-'}"
        )
    return {"rows": rows}, lines


def _cmd_hom_search(args):
    g = load_graph(args.source)
    h = load_graph(args.target)
    out = hom_search(g, h, args.budget)
    mapping = None
    if out.found:
        if not validate_hom(out.mapping, g, h):
            raise ConsistencyError(
                "the exhaustive search returned a map that is not a homomorphism"
            )
        mapping = [
            [g.vertices[i], h.vertices[t]] for i, t in enumerate(out.mapping)
        ]
    result = {"status": out.status, "expansions": out.expansions, "map": mapping}
    lines = [f"search: {out.status} ({out.expansions} expansions)"]
    if mapping:
        lines.extend(f"  {u} -> {v}" for u, v in mapping)
    return result, lines


def _count(text):
    """argparse type of the limits and the budget: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def _build_parser(face_default):
    parser = argparse.ArgumentParser(
        prog="nbhd",
        description="Walk-neighborhood complexes of finite graphs and their "
        "homomorphism obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "limit-faces": dict(type=_count, default=face_default,
                            help="face-count guard for enumeration"),
        "budget": dict(type=_count, default=DEFAULT_BUDGET,
                       help="node-expansion limit for exhaustive searches"),
        "out": dict(default=None, help="write the artifact to this file"),
    }

    def add(name, help_text, *options):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="emit the run report as JSON")
        for opt in options:
            sp.add_argument("--" + opt, **shared[opt])
        return sp

    sp = add("girth", "odd girth of a graph file")
    sp.add_argument("graph")

    sp = add("complex", "walk-neighborhood complex of a graph", "limit-faces", "out")
    sp.add_argument("graph")
    sp.add_argument("r", type=int)

    sp = add("homology", "integral homology of a complex or graph+radius", "limit-faces")
    sp.add_argument("file")
    sp.add_argument("-r", type=int, default=None, help="radius when the input is a graph")

    sp = add("bposet", "linked-pair poset of a graph", "out")
    sp.add_argument("graph")
    sp.add_argument("r", type=int)
    sp.add_argument("--guard", type=_count, default=DEFAULT_POSET_GUARD, help="element-count guard")

    sp = add("obstruct", "homomorphism obstruction verdict", "limit-faces", "budget")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("r", type=int)
    sp.add_argument("--exact", action="store_true",
                    help="fall back to exact cup-power heights")

    sp = add("morse", "matching + collapse tower for a cycle complex", "limit-faces")
    sp.add_argument("m", type=int)
    sp.add_argument("r", type=int)

    sp = add("kneser-table", "survey table over Kneser parameters")
    sp.add_argument("n_min", type=int)
    sp.add_argument("n_max", type=int)
    sp.add_argument("k_min", type=int)
    sp.add_argument("k_max", type=int)
    sp.add_argument("--limit-cells", type=_count, default=20_000,
                    help="total vertex-count guard for the table")

    sp = add("hom-search", "exhaustive homomorphism search", "budget")
    sp.add_argument("source")
    sp.add_argument("target")

    return parser


def main(argv=None):
    # argparse runs a string default through the option's type, so a bad
    # NBHD_LIMIT_FACES is an input error of the commands that read it
    face_default = os.environ.get("NBHD_LIMIT_FACES", DEFAULT_FACE_LIMIT)
    args = _build_parser(face_default).parse_args(argv)
    # the handler is looked up when it runs, so the cached parser holds none
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    t0 = time.perf_counter()
    try:
        result, lines = handler(args)
    except FreenessError as exc:
        print(f"freeness violation: {exc}", file=sys.stderr)
        return EXIT_FREENESS
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print(f"resource limit: {args.command} exceeded the Python recursion limit",
              file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print(f"resource limit: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ConsistencyError as exc:
        print(f"fatal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    wall = time.perf_counter() - t0
    report = {
        "command": args.command,
        "parameters": {key: value for key, value in vars(args).items()
                       if key not in ("command", "json", "limit_faces")},
        "result": result,
        "limits": {key: getattr(args, attr) for key, attr in
                   (("face_limit", "limit_faces"), ("budget", "budget"))
                   if hasattr(args, attr)},
        "wall_time_s": round(wall, 6),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)
        print(f"[{wall:.3f}s]")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

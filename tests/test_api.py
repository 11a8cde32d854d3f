"""The public surface: every exported name resolves, the names whose only
callers were tests stay out of it, importing the package loads no module
that only those names used, and the result records are immutable values."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import nbhd

SUBMODULES = [m.name for m in pkgutil.iter_modules(nbhd.__path__)]


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(pathlib.Path(nbhd.__file__).read_text())
    names = [(node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    for module, name in names:
        assert getattr(nbhd, name) is getattr(importlib.import_module("nbhd." + module), name)


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_name_in_a_submodules_all_resolves(module):
    mod = importlib.import_module("nbhd." + module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"nbhd.{module}.__all__ names {name}, which it lacks"


@pytest.mark.parametrize("name", ["collapse", "verify_matching", "MatchingReport"])
def test_retired_morse_names_are_not_exported(name):
    # the tower's _collapse is the one collapse path; the label wrapper and
    # the matching diagnostic live in the tests
    morse = importlib.import_module("nbhd.morse")
    assert not hasattr(nbhd, name)
    assert not hasattr(morse, name)
    assert name not in morse.__all__


def test_complexes_have_no_label_face_lookup():
    assert not hasattr(nbhd.SimplicialComplex, "has_face")
    assert hasattr(nbhd.SimplicialComplex, "has_face_indices")


def test_import_leaves_graphlib_unloaded():
    # only the tests' checked poset constructor sorts covers topologically
    src = os.path.dirname(os.path.dirname(nbhd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, nbhd; print('graphlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


# Each record as (class, its fields in order, repr).  Every record is an
# immutable value: built by position or keyword, equal and hashed by value,
# closed to assignment, printed as before, and its JSON form a copy.
_BOUND = nbhd.z2.HeightBound("lower", 2, "girth-sphere")
RECORDS = [
    (nbhd.SearchOutcome, dict(status="found", mapping=(1, 0), expansions=3),
     "SearchOutcome(status='found', mapping=(1, 0), expansions=3)"),
    (nbhd.HomologyResult, dict(groups=((1, ()), (0, (2,)))),
     "HomologyResult(groups=((1, ()), (0, (2,))))"),
    (nbhd.Presentation, dict(generators=("a", "b"), relators=(((0, 1), (1, -1)),)),
     "Presentation(generators=('a', 'b'), relators=(((0, 1), (1, -1)),))"),
    (nbhd.MorseMatching, dict(pairs=(((0,), (0, 1)),), domain=frozenset({(0, 1)})),
     "MorseMatching(pairs=(((0,), (0, 1)),), domain=frozenset({(0, 1)}))"),
    (nbhd.Involution, dict(perm=(1, 0)), "Involution(perm=(1, 0))"),
    (nbhd.FreenessReport, dict(free=False, reason="fixed vertex", witness=(3,)),
     "FreenessReport(free=False, reason='fixed vertex', witness=(3,))"),
    (nbhd.z2.HeightBound, dict(kind="lower", value=2, rule="girth-sphere"),
     "HeightBound(kind='lower', value=2, rule='girth-sphere')"),
    (nbhd.HeightBounds, dict(lower=2, upper=None, rules=(_BOUND,)),
     "HeightBounds(lower=2, upper=None, rules=(HeightBound(kind='lower', value=2, "
     "rule='girth-sphere'),))"),
    (nbhd.ObstructionReport,
     dict(verdict="NO-MAP", r=3, lhs={"bound": 8, "rule": "a"}, rhs={"bound": 3, "rule": "b"},
          convention="sup-height"),
     "ObstructionReport(verdict='NO-MAP', r=3, lhs={'bound': 8, 'rule': 'a'}, "
     "rhs={'bound': 3, 'rule': 'b'}, convention='sup-height')"),
    (nbhd.KneserReport, dict(verdict="NO-MAP", rule="vertex-count", detail={"n": 5, "k": 2}),
     "KneserReport(verdict='NO-MAP', rule='vertex-count', detail={'n': 5, 'k': 2})"),
]


def _fresh(values):
    # the same values in new containers, so equality is by value
    return tuple(dict(v) if isinstance(v, dict) else v for v in values)


def _scribble(obj):
    """Change every list and dict inside ``obj`` in place."""
    children = obj.values() if isinstance(obj, dict) else obj
    for child in list(children):
        if isinstance(child, (dict, list)):
            _scribble(child)
    if isinstance(obj, dict):
        obj["scribbled"] = True
    else:
        obj.append("scribbled")


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, text):
    names, values = tuple(fields), tuple(fields.values())
    rec = cls(*values)
    assert tuple(getattr(rec, name) for name in names) == values
    assert cls(**dict(zip(names, _fresh(values)))) == rec
    assert repr(rec) == text
    # equal and hashed by value; a dict field makes the record unhashable
    twin = cls(*_fresh(values))
    assert twin == rec
    if any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec)
    with pytest.raises(AttributeError):
        setattr(rec, names[0], values[0])
    with pytest.raises(AttributeError):
        rec.extra = 1
    if hasattr(rec, "to_json_obj"):
        obj = rec.to_json_obj()
        _scribble(obj)
        assert rec == twin and repr(rec) == text


def test_record_defaults():
    assert nbhd.FreenessReport(True) == nbhd.FreenessReport(True, None, None)
    assert nbhd.FreenessReport(free=True).witness is None
    lhs, rhs = {"bound": 1, "rule": "a"}, {"bound": 2, "rule": "b"}
    report = nbhd.ObstructionReport("INCONCLUSIVE", 1, lhs, rhs)
    assert report.convention == "sup-height"
    assert report == nbhd.ObstructionReport(verdict="INCONCLUSIVE", r=1, lhs=lhs, rhs=rhs,
                                            convention="sup-height")
    assert report.to_json_obj() == {"verdict": "INCONCLUSIVE", "r": 1, "lhs": lhs,
                                    "rhs": rhs, "convention": "sup-height"}


def test_records_keep_their_truth_values():
    assert not nbhd.FreenessReport(False, "fixed vertex", (0,))
    assert nbhd.FreenessReport(True)
    assert nbhd.SearchOutcome("none", None, 0) and not nbhd.SearchOutcome("none", None, 0).found


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # the records are named tuples, so nothing pulls in dataclasses and the
    # inspect, ast and dis modules it imports
    src = os.path.dirname(os.path.dirname(nbhd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, nbhd.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"

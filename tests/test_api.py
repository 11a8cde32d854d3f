"""The public surface: every exported name resolves, the names whose only
callers were tests stay out of it, and importing the package loads no
module that only those names used."""

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

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nbhd
from nbhd import cycle_matching, make_cycle, make_kneser, save_graph
from nbhd import cli
from nbhd.cli import main


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.json"
    save_graph(make_kneser(5, 2), path)
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.json"
    save_graph(make_cycle(5), path)
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    save_graph(make_cycle(6), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGirth:
    def test_petersen(self, capsys, petersen_file):
        code, report = run_json(capsys, ["girth", petersen_file])
        assert code == 0
        assert report["result"]["odd_girth"] == 5
        assert report["parameters"]["graph"] == petersen_file

    def test_bipartite_is_infinite(self, capsys, c6_file):
        code, report = run_json(capsys, ["girth", c6_file])
        assert code == 0 and report["result"]["odd_girth"] == "infinite"

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("# triangle\n0 1\n1 2\n2 0\n")
        code, report = run_json(capsys, ["girth", str(path)])
        assert code == 0 and report["result"]["odd_girth"] == 3

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [0, 1], "edges": [[0, 7]]}')
        assert main(["girth", str(path)]) == 2


class TestComplex:
    def test_writes_facets(self, capsys, c5_file, tmp_path):
        out = tmp_path / "n3c5.json"
        code, report = run_json(capsys, ["complex", c5_file, "3", "--out", str(out)])
        assert code == 0
        assert report["result"]["facet_count"] == 5
        assert report["result"]["dim"] == 3
        obj = json.loads(out.read_text())
        assert len(obj["facets"]) == 5 and all(len(f) == 4 for f in obj["facets"])

    def test_kneser_radius3(self, capsys, petersen_file):
        code, report = run_json(capsys, ["complex", petersen_file, "3"])
        assert code == 0
        assert report["result"]["facet_count"] == 10
        assert all(len(f) == 9 for f in report["result"]["complex"]["facets"])

    def test_bad_radius(self, c5_file):
        assert main(["complex", c5_file, "0"]) == 2


class TestHomology:
    def test_from_complex_file(self, capsys, c5_file, tmp_path):
        out = tmp_path / "k.json"
        main(["complex", c5_file, "3", "--out", str(out)])
        capsys.readouterr()
        code, report = run_json(capsys, ["homology", str(out)])
        assert code == 0
        rows = report["result"]["homology"]
        assert rows[0]["betti"] == 1 and rows[3]["betti"] == 1

    def test_from_graph_with_radius(self, capsys, petersen_file):
        code, report = run_json(capsys, ["homology", petersen_file, "-r", "3"])
        assert code == 0
        rows = report["result"]["homology"]
        assert [r["betti"] for r in rows] == [1, 0, 0, 0, 0, 0, 0, 0, 1]
        assert all(r["torsion"] == [] for r in rows)

    def test_from_edge_list_with_radius(self, capsys, tmp_path):
        # N(C5) at radius 1 is a 5-cycle
        path = tmp_path / "c5.txt"
        path.write_text("# pentagon\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, report = run_json(capsys, ["homology", str(path), "-r", "1"])
        assert code == 0
        assert [r["betti"] for r in report["result"]["homology"]] == [1, 1]

    def test_graph_without_radius_fails(self, petersen_file):
        assert main(["homology", petersen_file]) == 2

    # N_2(Petersen) is reduced on 635 faces or chains; N_3(Petersen), the
    # boundary of a 9-simplex, is answered from its facets and reads no face
    def test_face_limit_env(self, petersen_file, monkeypatch):
        monkeypatch.setenv("NBHD_LIMIT_FACES", "50")
        assert main(["homology", petersen_file, "-r", "2"]) == 3

    def test_face_limit_flag(self, petersen_file):
        assert main(["homology", petersen_file, "-r", "2", "--limit-faces", "50"]) == 3

    def test_simplex_boundary_passes_a_zero_limit(self, petersen_file, monkeypatch):
        assert main(["homology", petersen_file, "-r", "3", "--limit-faces", "0"]) == 0
        monkeypatch.setenv("NBHD_LIMIT_FACES", "0")
        assert main(["homology", petersen_file, "-r", "3"]) == 0
        assert main(["homology", petersen_file, "-r", "2"]) == 3

    def test_kneser_7_3_radius_5_is_a_33_sphere(self, capsys, tmp_path):
        path = tmp_path / "k73.json"
        save_graph(make_kneser(7, 3), path)
        for extra in ([], ["--limit-faces", "1"]):
            code, report = run_json(capsys, ["homology", str(path), "-r", "5", *extra])
            assert code == 0
            rows = report["result"]["homology"]
            assert [r["dim"] for r in rows if r["betti"]] == [0, 33]
            assert all(r["betti"] == 1 for r in rows if r["betti"])
            assert all(r["torsion"] == [] for r in rows)


class TestBposet:
    def test_triangle(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        save_graph(make_cycle(3), path)
        code, report = run_json(capsys, ["bposet", str(path), "1"])
        assert code == 0
        assert report["result"]["element_count"] == 12
        obj = report["result"]["poset"]
        assert len(obj["elements"]) == 12
        assert all(len(c) == 2 for c in obj["covers"])

    def test_writes_poset(self, capsys, c5_file, tmp_path):
        out = tmp_path / "p.json"
        code, report = run_json(capsys, ["bposet", c5_file, "1", "--out", str(out)])
        assert code == 0
        result = report["result"]
        assert "poset" not in result
        text = out.read_text()
        assert text.endswith("}\n")
        obj = json.loads(text)
        assert len(obj["elements"]) == result["element_count"] > 0
        assert len(obj["covers"]) == result["cover_count"] > 0
        assert main(["bposet", c5_file, "1", "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out

    def test_guard(self, petersen_file):
        assert main(["bposet", petersen_file, "1", "--guard", "5"]) == 3


class TestObstruct:
    def test_kneser_blocked(self, capsys, petersen_file, c5_file):
        code, report = run_json(capsys, ["obstruct", petersen_file, c5_file, "3"])
        assert code == 0
        res = report["result"]
        assert res["obstruction"]["verdict"] == "NO-MAP"
        assert res["obstruction"]["lhs"]["bound"] == 8
        assert res["obstruction"]["rhs"]["bound"] == 3
        assert res["search"]["status"] == "none"

    def test_reverse_direction_inconclusive(self, capsys, petersen_file, c5_file):
        code, report = run_json(capsys, ["obstruct", c5_file, petersen_file, "3"])
        assert code == 0
        res = report["result"]
        assert res["obstruction"]["verdict"] == "INCONCLUSIVE"
        assert res["search"]["status"] == "found"

    def test_square_to_triangle(self, capsys, tmp_path):
        c4 = tmp_path / "c4.json"
        c3 = tmp_path / "c3.json"
        save_graph(make_cycle(4), c4)
        save_graph(make_cycle(3), c3)
        code, report = run_json(capsys, ["obstruct", str(c4), str(c3), "1"])
        assert code == 0
        assert report["result"]["obstruction"]["verdict"] == "INCONCLUSIVE"
        assert report["result"]["search"]["status"] == "found"

    def test_even_radius_freeness_violation(self, c5_file):
        assert main(["obstruct", c5_file, c5_file, "2"]) == 4

    def test_exact_mode_with_edge_list_source(self, capsys, c5_file, tmp_path):
        # untagged complete graph from a text edge list: only the exact
        # cup-power height (2) blocks the pentagon
        k4 = tmp_path / "k4.txt"
        k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, report = run_json(capsys, ["obstruct", str(k4), c5_file, "1", "--exact"])
        assert code == 0
        res = report["result"]["obstruction"]
        assert res["verdict"] == "NO-MAP"
        assert res["lhs"] == {"bound": 2, "rule": "cup-power-height"}

    def test_deterministic_payloads(self, capsys, petersen_file, c5_file):
        _, a = run_json(capsys, ["obstruct", petersen_file, c5_file, "3"])
        _, b = run_json(capsys, ["obstruct", petersen_file, c5_file, "3"])
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("tag", [
    ["cycle"],
    ["kneser", 5],
    ["cycle", "5"],
    ["cycle", 5.0],
    ["cycle", True],
    ["cycle", 7],
    ["kneser", 5, 2],
    ["kneser", 5, 0],
    ["kneser", 5, 1, 1],
    ["petersen", 5],
    [],
    "cycle",
    None,
])
def test_malformed_tag_is_an_input_error(tmp_path, capsys, c5_file, tag):
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps({"vertices": list(range(5)),
                                "edges": [[i, (i + 1) % 5] for i in range(5)],
                                "tag": tag}))
    assert main(["obstruct", str(path), c5_file, "3"]) == 2
    assert "tag" in capsys.readouterr().err


@pytest.mark.parametrize("command,obj", [
    ("homology", {"vertices": [1, 2], "facets": [5]}),
    ("homology", {"vertices": 3, "facets": []}),
    ("homology", {"vertices": [[1, {"a": 1}]], "facets": []}),
    ("girth", {"vertices": [1, 2], "edges": 7}),
    ("girth", {"vertices": [1, 2], "edges": [[1, 2, 1]]}),
    ("girth", {"vertices": [{"a": 1}], "edges": []}),
    ("hom-search", {"vertices": [{"a": 1}], "edges": []}),
    ("homology", {"vertices": [1, 2], "facets": [[1, 3]]}),
    ("homology", {"vertices": [1, 1], "facets": [[1]]}),
    ("homology", {"vertices": [1, 2], "facets": [[1, 1, 2]]}),
])
def test_malformed_json_shape_is_an_input_error(tmp_path, capsys, command, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    files = [str(path)] * (2 if command == "hom-search" else 1)
    assert main([command, *files]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,stage", [
    (["homology", "{petersen}", "-r", "2", "--limit-faces", "50"], "face enumeration"),
    (["obstruct", "{k4}", "{c5}", "1", "--exact", "--limit-faces", "3"],
     "orbit-face enumeration"),
    (["complex", "{petersen}", "3", "--limit-faces", "50"], "face enumeration"),
    (["kneser-table", "10", "14", "2", "5", "--limit-cells", "100"], "kneser-table"),
    (["bposet", "{petersen}", "1", "--guard", "10"], "linked-pair poset"),
    (["morse", "31", "14", "--limit-faces", "100"], "stage r=14 matching"),
])
def test_resource_limit_names_stage_and_count(tmp_path, capsys, petersen_file, c5_file,
                                              argv, stage):
    k4 = tmp_path / "k4.txt"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    files = {"petersen": petersen_file, "c5": c5_file, "k4": str(k4)}
    assert main([a.format(**files) for a in argv]) == 3
    err = capsys.readouterr().err
    found = re.search(r"(\S[^:]*) reached (\d+) \w+, above the \w+ of (\d+)", err)
    assert found and found.group(1).endswith(stage), err
    assert int(found.group(2)) > int(found.group(3))


class TestMorse:
    def test_heptagon(self, capsys):
        code, report = run_json(capsys, ["morse", "7", "2"])
        assert code == 0
        res = report["result"]
        assert len(res["final_facets"]) == 7
        assert [r["betti"] for r in res["homology"]] == [1, 1]
        assert res["verification"]["perfect"] is True
        assert all(len(pair) == 2 for pair in res["matching"])

    @pytest.mark.parametrize("m,r", [(7, 2), (17, 7)])
    def test_report_of_every_stage(self, capsys, m, r):
        # each stage's checks prove its matching perfect; the report says so
        # in full, with one stage per radius down to 2
        code, report = run_json(capsys, ["morse", str(m), str(r)])
        assert code == 0
        perfect = {"duplicates": [], "bad_pairs": [], "missing": [], "critical": [],
                   "well_formed": True, "perfect": True}
        res = report["result"]
        assert res["verification"] == perfect
        assert res["stages"] == [
            {"radius": rr, "pairs": m << (rr - 2), "acyclic": True, "verification": perfect}
            for rr in range(r, 1, -1)]

    def test_even_m_rejected(self):
        assert main(["morse", "6", "2"]) == 2

    def test_matching_is_the_library_matching(self, capsys):
        code, report = run_json(capsys, ["morse", "9", "3"])
        assert code == 0
        assert report["result"]["matching"] == cycle_matching(9, 3).to_json_obj()

    @pytest.mark.parametrize("argv", [["6", "2"], ["7", "1"], ["9", "5"]])
    def test_bad_parameters_exit_2_before_the_limit(self, argv):
        assert main(["morse", *argv, "--limit-faces", "0"]) == 2

    def test_limit_trips_before_the_top_matching_is_built(self, capsys):
        # the top stage names 31 * 2^13 matched faces; the guard reads that
        # count in closed form, so the matching is never built
        tracemalloc.start()
        try:
            code = main(["morse", "31", "14", "--limit-faces", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "stage r=14 matching reached 253952 faces" in capsys.readouterr().err
        assert peak < 2 * 2 ** 20


class TestKneserTable:
    def test_standard_window(self, capsys):
        code, report = run_json(capsys, ["kneser-table", "5", "7", "2", "3"])
        assert code == 0
        rows = {(r["n"], r["k"]): r for r in report["result"]["rows"]}
        assert rows[(5, 2)]["odd_girth"] == 5
        assert rows[(5, 2)]["r"] == 1 and rows[(5, 2)]["certificate"]
        assert rows[(6, 2)]["odd_girth"] == 3 and not rows[(6, 2)]["certificate"]
        assert rows[(6, 3)]["odd_girth"] == "infinite"
        assert rows[(7, 3)]["r"] == 2 and rows[(7, 3)]["certificate"]

    def test_cell_limit(self):
        assert main(["kneser-table", "10", "14", "2", "5", "--limit-cells", "100"]) == 3


class TestHomSearch:
    def test_wraparound(self, capsys, tmp_path):
        c9 = tmp_path / "c9.json"
        c3 = tmp_path / "c3.json"
        save_graph(make_cycle(9), c9)
        save_graph(make_cycle(3), c3)
        code, report = run_json(capsys, ["hom-search", str(c9), str(c3)])
        assert code == 0
        res = report["result"]
        assert res["status"] == "found" and len(res["map"]) == 9

    def test_budget(self, capsys, petersen_file, c5_file):
        code, report = run_json(
            capsys, ["hom-search", petersen_file, c5_file, "--budget", "5"]
        )
        assert code == 0
        assert report["result"]["status"] == "budget-exceeded"

    def test_invalid_map_is_a_consistency_error(self, capsys, monkeypatch, c5_file):
        # checked without assert, so python -O keeps the check
        monkeypatch.setattr(cli, "validate_hom", lambda f, G, H: False)
        assert main(["hom-search", c5_file, c5_file]) == cli.EXIT_INTERNAL == 1
        assert "consistency" in capsys.readouterr().err

    def test_too_deep_for_recursive_search(self, tmp_path, capsys):
        c1200 = tmp_path / "c1200.json"
        c4 = tmp_path / "c4.json"
        save_graph(make_cycle(1200), c1200)
        save_graph(make_cycle(4), c4)
        assert main(["hom-search", str(c1200), str(c4)]) == 3
        assert "hom-search" in capsys.readouterr().err


class TestOptionsWhereRead:
    @pytest.mark.parametrize("argv", [
        ["girth", "G", "--budget", "5"],
        ["girth", "G", "--limit-faces", "5"],
        ["homology", "G", "--out", "x.json"],
        ["obstruct", "G", "H", "3", "--out", "x.json"],
        ["hom-search", "G", "H", "--limit-faces", "5"],
        ["kneser-table", "5", "7", "2", "3", "--budget", "5"],
        ["morse", "7", "2", "--budget", "5"],
        ["bposet", "G", "3", "--limit-faces", "5"],
        ["obstruct", "G", "H", "3", "--guard", "7"],
    ])
    def test_unread_option_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["hom-search", "{g}", "{g}", "--budget", "-1"],
        ["obstruct", "{g}", "{g}", "3", "--budget", "-5"],
        ["homology", "{g}", "-r", "3", "--limit-faces", "-1"],
        ["complex", "{g}", "3", "--limit-faces", "-1"],
        ["obstruct", "{g}", "{g}", "3", "--exact", "--limit-faces", "-1"],
        ["bposet", "{g}", "1", "--guard", "-1"],
        ["kneser-table", "5", "7", "2", "3", "--limit-cells", "-1"],
        ["hom-search", "{g}", "{g}", "--budget", "ten"],
    ])
    def test_negative_or_malformed_count_rejected(self, argv, c5_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.replace("{g}", c5_file) for a in argv])
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_zero_counts_accepted(self, capsys, c5_file):
        code, report = run_json(capsys, ["hom-search", c5_file, c5_file, "--budget", "0"])
        assert code == 0 and report["result"] == {
            "status": "budget-exceeded", "expansions": 1, "map": None}
        # N(C5) is a pentagon, reduced on its faces; N_3(C5), the boundary of
        # a 4-simplex, is answered from its facets, so a limit of 0 passes
        # there
        assert main(["homology", c5_file, "-r", "1", "--limit-faces", "0"]) == 3
        assert main(["homology", c5_file, "-r", "3", "--limit-faces", "0"]) == 0

    @pytest.mark.parametrize("value", ["-1", "many"])
    def test_bad_face_limit_env_rejected(self, value, c5_file, monkeypatch, capsys):
        monkeypatch.setenv("NBHD_LIMIT_FACES", value)
        with pytest.raises(SystemExit) as exc:
            main(["homology", c5_file, "-r", "3"])
        assert exc.value.code == 2
        assert "--limit-faces" in capsys.readouterr().err
        # commands without the face guard do not read it
        assert main(["girth", c5_file]) == 0

    def test_report_lists_only_taken_limits(self, capsys, c5_file, petersen_file):
        _, report = run_json(capsys, ["girth", c5_file])
        assert report["limits"] == {}
        _, report = run_json(capsys, ["hom-search", petersen_file, c5_file, "--budget", "5"])
        assert report["limits"] == {"budget": 5}
        _, report = run_json(capsys, ["homology", c5_file, "-r", "1", "--limit-faces", "50"])
        assert report["limits"] == {"face_limit": 50}
        _, report = run_json(capsys, ["obstruct", petersen_file, c5_file, "3"])
        assert set(report["limits"]) == {"face_limit", "budget"}


def _parameters_cases(c5, pet, tmp):
    """(argv, parameters) for every subcommand: each argument it parsed,
    defaults included, apart from --json and --limit-faces."""
    out = str(tmp / "out.json")
    return [
        (["girth", pet], {"graph": pet}),
        (["complex", c5, "3", "--limit-faces", "99"], {"graph": c5, "r": 3, "out": None}),
        (["complex", c5, "3", "--out", out], {"graph": c5, "r": 3, "out": out}),
        (["homology", pet, "-r", "3"], {"file": pet, "r": 3}),
        (["homology", out], {"file": out, "r": None}),
        (["bposet", c5, "1", "--guard", "999"], {"graph": c5, "r": 1, "guard": 999, "out": None}),
        (["bposet", c5, "1"], {"graph": c5, "r": 1, "guard": 200_000, "out": None}),
        (["obstruct", pet, c5, "3"],
         {"source": pet, "target": c5, "r": 3, "exact": False, "budget": 10_000_000}),
        (["obstruct", pet, c5, "1", "--exact", "--budget", "5000"],
         {"source": pet, "target": c5, "r": 1, "exact": True, "budget": 5000}),
        (["morse", "9", "3"], {"m": 9, "r": 3}),
        (["kneser-table", "5", "6", "1", "2"],
         {"n_min": 5, "n_max": 6, "k_min": 1, "k_max": 2, "limit_cells": 20_000}),
        (["hom-search", c5, pet, "--budget", "77"], {"source": c5, "target": pet, "budget": 77}),
    ]


def test_parameters_echo_the_parsed_arguments(capsys, c5_file, petersen_file, tmp_path):
    for argv, parameters in _parameters_cases(c5_file, petersen_file, tmp_path):
        code, report = run_json(capsys, argv)
        assert code == 0, argv
        assert report["parameters"] == parameters, argv
        assert report["command"] == argv[0]


def test_memory_error_exits_resource(monkeypatch, capsys, c5_file):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_girth", out_of_memory)
    assert main(["girth", c5_file]) == cli.EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "girth" in err and "memory" in err


def test_parser_is_built_once_per_face_default(monkeypatch, capsys, c5_file):
    monkeypatch.delenv("NBHD_LIMIT_FACES", raising=False)
    cli._build_parser.cache_clear()
    assert main(["girth", c5_file]) == 0
    assert main(["homology", c5_file, "-r", "1"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    # a handler patched after the parser was built is the one that runs
    monkeypatch.setattr(cli, "_cmd_girth", lambda args: ({}, ["patched"]))
    assert main(["girth", c5_file]) == 0
    assert capsys.readouterr().out.startswith("patched")
    # N(C5) is reduced on its 10 faces, so a limit of 0 from the
    # environment stops it; the default's parser is reused afterwards
    monkeypatch.setenv("NBHD_LIMIT_FACES", "0")
    assert main(["homology", c5_file, "-r", "1"]) == 3
    assert cli._build_parser.cache_info().misses == 2
    monkeypatch.delenv("NBHD_LIMIT_FACES")
    assert main(["homology", c5_file, "-r", "1"]) == 0
    assert cli._build_parser.cache_info().misses == 2


def test_cli_import_does_not_load_numpy():
    src = str(Path(nbhd.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import nbhd.cli; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_worked_examples_script_runs():
    root = Path(__file__).resolve().parent.parent
    src = str(Path(nbhd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(root / "scripts" / "run_worked_examples.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "all examples reproduced" in out.stdout

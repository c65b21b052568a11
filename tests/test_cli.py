import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clustermod
from clustermod import cli, engine, verify
from clustermod.cartan import cartan_type
from clustermod.cli import main
from clustermod.engine import Seed, enumerate_exchange_graph
from clustermod.errors import InexactDivisionError, InternalInvariantError
from clustermod.quivers import IceQuiver, Vertex, build_gamma_l
from clustermod.verify import CHECK_NAMES, check_reads
from oracles import orientations


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_psi_worked_example(capsys):
    code, out, _ = run(capsys, "psi", "--cartan", "A3", "--xi", "1:0,2:-1,3:-2",
                       "--level", "2", "--object", "mod:0,1,1")
    assert code == 0
    assert out.strip() == "Y[1,-2] Y[1,0] Y[3,-6] Y[3,-4]"


def test_psi_shifted_and_sum(capsys):
    code, out, _ = run(capsys, "psi", "--cartan", "A3", "--linear", "--level", "2",
                       "--object", "shp:1")
    assert code == 0 and out.strip() == "Y[1,-2] Y[1,0]"
    code, out, _ = run(capsys, "psi", "--cartan", "A3", "--linear", "--level", "2",
                       "--object", "mod:0,1,1+shp:1")
    assert code == 0
    assert out.strip() == "Y[1,-2]^2 Y[1,0]^2 Y[3,-6] Y[3,-4]"
    code, out, _ = run(capsys, "psi", "--cartan", "A2", "--xi", "1:0,2:-1",
                       "--object", "mod:1,0+mod:1,1")
    assert code == 0
    assert out.strip() == "Y[1,-4] Y[1,-2] Y[2,-5] Y[2,-3]"


@pytest.mark.parametrize("cartan,xi,obj,pair", [
    ("A2", "1:0,2:-1", "shp:1+mod:1,0", "shp:1, mod:1,0"),
    ("A2", "1:0,2:-1", "mod:1,0+mod:0,1", "mod:1,0, mod:0,1"),
    ("A3", "1:0,2:-1,3:-2", "mod:0,1,1+shp:2", "mod:0,1,1, shp:2"),
    ("D4", "1:0,2:-1,3:0,4:0", "mod:1,2,1,1+mod:0,1,0,0+shp:3", "mod:1,2,1,1, mod:0,1,0,0"),
])
def test_psi_non_rigid_sum_exits_3(capsys, cartan, xi, obj, pair):
    code, out, err = run(capsys, "psi", "--cartan", cartan, "--xi", xi, "--object", obj)
    assert (code, out) == (3, "")
    assert err == f"error: {obj} is not rigid: dim Ext^1({pair}) = 1\n"


def test_psi_non_root_exits_3(capsys):
    code, _, err = run(capsys, "psi", "--cartan", "A3", "--linear", "--level", "2",
                       "--object", "mod:1,0,1")
    assert code == 3
    assert "not a positive root" in err


def test_quiver_build_and_mutate_round_trip(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    code, _, _ = run(capsys, "quiver", "build", "--family", "gamma", "--cartan", "A3",
                     "--xi", "1:0,2:-1,3:0", "--level", "2", "--out", str(qfile))
    assert code == 0
    data = json.loads(qfile.read_text())
    assert len(data["vertices"]) == 9
    assert len(data["arrows"]) == 14

    code, out, _ = run(capsys, "quiver", "mutate", "--in", str(qfile),
                       "--at", "(1,0)", "--at", "(1,0)")
    assert code == 0
    assert json.loads(out) == data


def test_quiver_mutate_bad_label_exits_2(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    run(capsys, "quiver", "build", "--family", "qcheck", "--cartan", "A2",
        "--xi", "1:0,2:-1", "--out", str(qfile))
    code, _, err = run(capsys, "quiver", "mutate", "--in", str(qfile), "--at", "(9,9)")
    assert code == 2
    assert "unknown vertex" in err


def test_quiver_build_coefficient_quiver_json(capsys):
    code, out, _ = run(capsys, "quiver", "build", "--family", "qxil", "--cartan", "A4",
                       "--xi", "1:0,2:-1,3:-2,4:-1", "--level", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 12 and len(data["arrows"]) == 17


def test_quiver_build_full_grid_window(capsys):
    code, out, _ = run(capsys, "quiver", "build", "--family", "gammafull", "--cartan", "A3",
                       "--xi", "1:0,2:-1,3:0", "--level", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(not v["frozen"] for v in data["vertices"])
    assert len(data["vertices"]) == 9


@pytest.mark.parametrize("level", ["0", "-1"])
def test_quiver_build_full_grid_level_below_1_exits_3(capsys, level):
    code, out, err = run(capsys, "quiver", "build", "--family", "gammafull", "--cartan", "A3",
                         "--xi", "1:0,2:-1,3:0", f"--level={level}", "--format", "text")
    assert (code, out) == (3, "")
    assert err == "error: level must be >= 1\n"


def test_quiver_build_full_grid_rmin_sets_the_window(capsys):
    code, out, _ = run(capsys, "quiver", "build", "--family", "gammafull", "--cartan", "A3",
                       "--xi", "1:0,2:-1,3:0", "--rmin=-2", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "vertices: (1,0) (1,-2) (2,-1) (3,0) (3,-2)"


@pytest.mark.parametrize("argv,message", [
    (["quiver", "build", "--family", "qxi"], "--level does not apply to --family qxi"),
    (["quiver", "build", "--family", "qcheck"], "--level does not apply to --family qcheck"),
    (["quiver", "build", "--family", "gammafull", "--rmin=-2"],
     "--level does not apply with --rmin"),
    (["engine", "enumerate"], "--level does not apply to --family qcheck"),
    (["table", "roots"], "--level does not apply to table roots"),
    (["table", "ar-gvectors"], "--level does not apply to table ar-gvectors"),
], ids=["qxi", "qcheck", "gammafull-rmin", "enumerate-qcheck", "table-roots",
        "table-ar-gvectors"])
def test_level_given_where_it_is_not_read_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--cartan", "A3", "--xi", "1:0,2:-1,3:0", "--level=-1")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# the checks that read --level; given to any other check, the level is a usage error
LEVEL_READERS = {"psi-kr", "hw-exchange", "tsystem", "sequence"}


@pytest.mark.parametrize("check", ["examples", "goldens", "psi-kr", "trop-socle", "yhat",
                                   "exchange", "hw-exchange", "tsystem", "sequence",
                                   "properties"])
def test_verify_level_is_read_or_rejected(capsys, check):
    code, out, err = run(capsys, "verify", check, "--cartan", "A2", "--xi", "1:0,2:-1",
                         "--level=-5")
    if check in LEVEL_READERS:
        assert (code, out, err) == (3, "", "error: level must be >= 1\n")
    else:
        assert (code, out, err) == (2, "", f"error: --level does not apply to verify {check}\n")


# the checks that read --cartan/--xi/--linear: all but the two on fixed fixtures
SCOPE_READERS = {"psi-kr", "trop-socle", "yhat", "exchange", "hw-exchange", "tsystem", "sequence",
                 "properties", "all"}


@pytest.mark.parametrize("check", ["examples", "goldens", "psi-kr", "trop-socle", "yhat",
                                   "exchange", "hw-exchange", "tsystem", "sequence",
                                   "properties", "all"])
@pytest.mark.parametrize("given,readers", [
    (("--walks", "3"), {"properties", "all"}),
    (("--seed", "7"), {"properties", "all"}),
    (("--cartan", "A2", "--xi", "1:0,2:-1"), SCOPE_READERS),
    (("--linear",), SCOPE_READERS),
], ids=["walks", "seed", "cartan-xi", "linear"])
def test_verify_option_is_read_or_rejected(capsys, check, given, readers):
    argv = ["verify", check, *given]
    if check in SCOPE_READERS and "--cartan" not in given:
        argv += ["--cartan", "A2"] + ([] if "--linear" in given else ["--xi", "1:0,2:-1"])
    code, out, err = run(capsys, *argv)
    if check in readers:
        assert (code, err) == (0, "")
        assert out.startswith("PASS ") and "FAIL" not in out
    else:
        assert (code, out, err) == (2, "", f"error: {given[0]} does not apply to verify {check}\n")


# a zero is a given value: an option is given unless it is absent, never by truthiness
@pytest.mark.parametrize("argv,message", [
    (["verify", "examples", "--walks", "0"], "--walks does not apply to verify examples"),
    (["verify", "goldens", "--seed", "0"], "--seed does not apply to verify goldens"),
    (["verify", "examples", "--level", "0"], "--level does not apply to verify examples"),
    (["verify", "yhat", "--cartan", "A2", "--xi", "1:0,2:-1", "--walks", "0"],
     "--walks does not apply to verify yhat"),
    (["verify", "tsystem", "--cartan", "A2", "--xi", "1:0,2:-1", "--seed", "0"],
     "--seed does not apply to verify tsystem"),
    (["verify", "exchange", "--cartan", "A2", "--xi", "1:0,2:-1", "--level", "0"],
     "--level does not apply to verify exchange"),
    (["quiver", "build", "--family", "qxi", "--cartan", "A3", "--xi", "1:0,2:-1,3:0",
      "--level", "0"], "--level does not apply to --family qxi"),
    (["quiver", "build", "--family", "gammafull", "--cartan", "A3", "--xi", "1:0,2:-1,3:0",
      "--rmin", "0", "--level", "0"], "--level does not apply with --rmin"),
    (["engine", "enumerate", "--cartan", "A3", "--xi", "1:0,2:-1,3:0", "--level", "0"],
     "--level does not apply to --family qcheck"),
    (["table", "roots", "--cartan", "A3", "--xi", "1:0,2:-1,3:0", "--level", "0"],
     "--level does not apply to table roots"),
], ids=["verify-walks", "verify-seed", "verify-level", "yhat-walks", "tsystem-seed",
        "exchange-level", "qxi-level", "gammafull-rmin-level", "enumerate-level",
        "table-roots-level"])
def test_zero_given_where_it_is_not_read_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command,prog", [
    (["rep", "list"], "clustermod rep list"),
    (["engine", "enumerate"], "clustermod engine enumerate"),
    (["verify", "yhat"], "clustermod verify"),
], ids=["rep-list", "engine-enumerate", "verify-yhat"])
def test_xi_and_linear_together_exit_2(capsys, command, prog):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--cartan", "A3", "--linear", "--xi", "1:0,2:1,3:0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"{prog}: error: argument --xi: not allowed with argument --linear"]


def test_quiver_build_full_grid_empty_window_exits_3(capsys):
    code, out, err = run(capsys, "quiver", "build", "--family", "gammafull", "--cartan", "A3",
                         "--xi", "1:0,2:-1,3:0", "--rmin", "1")
    assert (code, out) == (3, "")
    assert err == "error: the window r >= 1 holds no vertex\n"


@pytest.mark.parametrize("family", ["gamma", "qxi", "qcheck", "qxil"])
def test_quiver_build_rmin_with_another_family_exits_2(capsys, family):
    code, out, err = run(capsys, "quiver", "build", "--family", family, "--cartan", "A3",
                         "--xi", "1:0,2:-1,3:0", "--rmin", "-4")
    assert (code, out) == (2, "")
    assert err == "error: --rmin applies only to --family gammafull\n"


def test_quiver_dot_format(capsys):
    code, out, _ = run(capsys, "quiver", "build", "--family", "gamma", "--cartan", "A3",
                       "--xi", "1:0,2:-1,3:0", "--level", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph quiver {")
    assert '"(2,-5)" [shape=box];' in out


def test_invalid_height_function_exits_3(capsys):
    code, _, err = run(capsys, "quiver", "build", "--family", "qxi", "--cartan", "A3",
                       "--xi", "1:0,2:0,3:0")
    assert code == 3


def test_missing_height_function_exits_2(capsys):
    code, _, err = run(capsys, "quiver", "build", "--family", "qxi", "--cartan", "A3")
    assert code == 2


def test_engine_enumerate(capsys):
    code, out, _ = run(capsys, "engine", "enumerate", "--cartan", "A2", "--xi", "1:0,2:-1")
    assert code == 0
    data = json.loads(out)
    assert data["seeds"] == 5 and data["exhaustive"]
    assert len(data["variables"]) == 5


def test_engine_respects_seed_cap(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTERMOD_MAX_SEEDS", "3")
    code, out, _ = run(capsys, "engine", "enumerate", "--cartan", "A3", "--linear")
    assert code == 0
    data = json.loads(out)
    assert data["seeds"] == 3 and not data["exhaustive"]


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_engine_seed_cap_below_one_exits_2(capsys, cap):
    code, out, err = run(capsys, "engine", "enumerate", "--cartan", "A3", "--linear",
                         "--max-seeds", cap)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_seed_cap_env_that_is_not_an_int(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTERMOD_MAX_SEEDS", "abc")
    code, out, _ = run(capsys, "verify", "examples")
    assert code == 0 and out.startswith("PASS examples")
    with pytest.raises(SystemExit) as exc:
        main(["engine", "enumerate", "--cartan", "A2", "--linear"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-seeds: invalid int value: 'abc'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("xi,message", [
    ("1:0,2:-1,3:-2,9:4", "error: height function names vertices [9] off the A3 diagram\n"),
    ("1:5,1:0,2:-1,3:-2", "error: height function names vertex 1 twice\n"),
], ids=["unknown-vertex", "repeated-vertex"])
def test_height_function_off_the_diagram_exits_3(capsys, xi, message):
    code, out, err = run(capsys, "psi", "--cartan", "A3", "--xi", xi, "--object", "shp:1")
    assert (code, out, err) == (3, "", message)


@pytest.mark.parametrize("name,message", [
    ("A0", "A_n needs n >= 1"),
    ("D3", "D_n needs n >= 4"),
    ("E9", "E_n needs n in {6,7,8}"),
    ("X3", "cannot parse Cartan type 'X3'"),
])
def test_cartan_type_off_the_ade_list_exits_3(capsys, name, message):
    code, out, err = run(capsys, "rep", "list", "--cartan", name, "--xi", "1:0")
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_linear_outside_type_a_exits_3(capsys):
    code, out, err = run(capsys, "rep", "list", "--cartan", "D4", "--linear")
    assert (code, out, err) == (3, "", "error: --linear is only defined for type A\n")


def test_height_function_with_an_empty_entry_is_accepted(capsys):
    want = run(capsys, "rep", "list", "--cartan", "A3", "--xi", "1:0,2:-1,3:-2")
    assert want[0] == 0 and want[1]
    assert run(capsys, "rep", "list", "--cartan", "A3", "--xi", "1:0,,2:-1,3:-2") == want


def test_engine_enumerate_without_cartan_exits_2(capsys):
    code, out, err = run(capsys, "engine", "enumerate", "--linear")
    assert (code, out, err) == (2, "", "error: --cartan is required\n")


def test_engine_enumerate_grid_family(capsys):
    a3 = cartan_type("A3")
    graph = enumerate_exchange_graph(Seed.initial(build_gamma_l(a3, {1: 0, 2: -1, 3: -2}, 3)),
                                     max_seeds=200)
    assert graph.seed_count == 200 and not graph.exhaustive
    code, out, err = run(capsys, "engine", "enumerate", "--cartan", "A3", "--linear",
                         "--family", "gamma", "--level", "3", "--max-seeds", "200")
    assert (code, out, err) == (0, graph.report_json() + "\n", "")


def test_quiver_mutate_file_with_a_repeated_label_exits_2(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps({"vertices": [{"label": "1"}, {"label": "1"}], "arrows": []}))
    code, out, err = run(capsys, "quiver", "mutate", "--in", str(qfile), "--at", "1")
    assert (code, out, err) == (2, "", "error: duplicate vertex labels\n")


def test_rep_show_json_matrices(capsys):
    code, out, _ = run(capsys, "rep", "show", "--cartan", "A3", "--linear",
                       "--object", "mod:0,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [0, 1, 1]
    mats = {(m["from"], m["to"]): m["matrix"] for m in data["matrices"]}
    assert mats[(2, 3)] == [[1]]
    code, _, _ = run(capsys, "rep", "show", "--cartan", "A3", "--linear",
                     "--object", "shp:1")
    assert code == 3


def test_rep_list(capsys):
    code, out, _ = run(capsys, "rep", "list", "--cartan", "A3", "--linear")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_tables(capsys):
    code, out, _ = run(capsys, "table", "ar-gvectors", "--cartan", "A3", "--linear")
    assert code == 0
    assert "( 1  0  0 |  0  0  0)" in out
    code, out, _ = run(capsys, "table", "psi-monomials", "--cartan", "A3", "--linear",
                       "--level", "2")
    assert code == 0
    assert "Y[1,-2] Y[1,0] Y[3,-6] Y[3,-4]" in out
    code, out, _ = run(capsys, "table", "roots", "--cartan", "D4",
                       "--xi", "1:0,2:-1,3:0,4:0")
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_a_coefficient_label_off_the_window_fails_sequence(capsys, monkeypatch):
    real = verify.build_qxil

    def top_row_up(cartan, xi, l):
        # the top row (i, xi(i) - 2l + 4) moves to xi(i) - 2l + 6, above the grid window
        q = real(cartan, xi, l)
        up = {Vertex(i, xi[i] - 2 * l + 4) for i in cartan.vertices}

        def move(v):
            return Vertex(v.i, v.r + 2) if v in up else v

        return IceQuiver.from_arrows([move(v) for v in q.vertices], map(move, q.frozen),
                                     [(move(s), move(t), m) for s, t, m in q.arrows()])

    monkeypatch.setattr(verify, "build_qxil", top_row_up)
    code, out, err = run(capsys, "verify", "sequence", "--cartan", "A3", "--linear",
                         "--level", "2")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("FAIL sequence") and "1 failures" in lines[0]
    assert lines[1:] == ["    {'detail': 'final subquiver equals the coefficient quiver', "
                         "'extra': '[]', 'missing': \"[(('(1,2)', '(1,-2)'), 1), "
                         "(('(2,-3)', '(1,2)'), 1), (('(2,1)', '(2,-3)'), 1), "
                         "(('(3,-4)', '(2,1)'), 1), (('(3,0)', '(3,-4)'), 1)]\"}"]


def test_verify_pass_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "goldens")
    assert code == 0
    assert out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "tsystem", "--cartan", "A2", "--xi", "1:0,2:-1")
    assert code == 0


# on A1 the exchange column is zero: neither exchange term has a factor, and the two
# g-sums agree
@pytest.mark.parametrize("xi,level", [("1:0", "2"), ("1:5", "3")])
def test_verify_every_check_passes_on_a1(capsys, xi, level):
    for check in (*CHECK_NAMES, "all"):
        argv = ["verify", check]
        if "cartan" in check_reads(check):
            argv += ["--cartan", "A1", "--xi", xi]
        if "l" in check_reads(check):
            argv += ["--level", level]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), check
        assert out.startswith("PASS ") and "FAIL" not in out, check


def test_verify_unknown_check_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchcheck"])
    assert exc.value.code == 2


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "examples", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["passed"] is True


def test_byte_identical_reruns(capsys):
    args = ("table", "psi-monomials", "--cartan", "A3", "--linear", "--level", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_psi_vertex_out_of_range_exits_3(capsys):
    code, out, err = run(capsys, "psi", "--cartan", "A3", "--linear", "--object", "shp:9")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["mod:a", "shp:x", "mod:"])
def test_malformed_object_spec_exits_3(capsys, spec):
    for argv in (("psi", "--cartan", "A3", "--linear", "--object", spec),
                 ("rep", "show", "--cartan", "A3", "--linear", "--object", spec)):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: cannot parse object spec {spec!r}\n"


def test_quiver_mutate_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "quiver", "mutate", "--in", str(tmp_path / "missing.json"),
                         "--at", "(1,0)")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


def test_verify_negative_walks_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "properties", "--cartan", "A2", "--xi", "1:0,2:-1", "--walks", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "clustermod verify: error: argument --walks: must be >= 0, got -1"]
    assert "Traceback" not in err


@pytest.mark.parametrize("level", ["0", "-2"])
def test_verify_tsystem_rejects_levels_below_1(capsys, level):
    code, out, err = run(capsys, "verify", "tsystem", "--cartan", "A3", "--xi", "1:0,2:-1,3:0",
                         f"--level={level}")
    assert (code, out, err) == (3, "", "error: level must be >= 1\n")


UNLISTED_VERTEX = json.dumps({"vertices": [{"label": "1"}, {"label": "2"}],
                              "arrows": [{"from": "1", "to": "(9,1)", "mult": 1}]})
LOOP = json.dumps({"vertices": [{"label": "1"}], "arrows": [{"from": "1", "to": "1"}]})


def _one_arrow(mult: int) -> str:
    # a multiplicity of 0 would read as no arrow and -2 as two arrows 2 -> 1
    return json.dumps({"vertices": [{"label": "1"}, {"label": "2"}],
                       "arrows": [{"from": "1", "to": "2", "mult": mult}]})


@pytest.mark.parametrize("text,message", [
    ("{}", "error: quiver JSON lacks the key 'vertices'\n"),
    ("not json", "error: quiver file is not JSON: Expecting value: line 1 column 1 (char 0)\n"),
    ("[1,2]", "error: malformed quiver JSON: list indices must be integers or slices, not str\n"),
    (UNLISTED_VERTEX, "error: arrow 1->(9,1) has an endpoint off the vertex list\n"),
    (LOOP, "error: arrow 1->1 is a loop; cluster quivers have no loops\n"),
    (_one_arrow(0), "error: arrow 1->2 has multiplicity 0, below 1\n"),
    (_one_arrow(-2), "error: arrow 1->2 has multiplicity -2, below 1\n"),
], ids=["empty-object", "not-json", "list", "unlisted-vertex", "loop", "mult-0", "mult-negative"])
def test_quiver_file_that_is_not_quiver_json_exits_2(tmp_path, capsys, text, message):
    qfile = tmp_path / "q.json"
    qfile.write_text(text)
    for argv in (("quiver", "mutate", "--in", str(qfile), "--at", "1"),
                 ("quiver", "export", "--in", str(qfile))):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ("quiver", "build", "--family", "qxi", "--cartan", "A2", "--xi", "1:0,2:-1"),
    ("engine", "enumerate", "--cartan", "A2", "--xi", "1:0,2:-1"),
], ids=["quiver-build", "engine-enumerate"])
def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "nonexistent" / "x.json"
    for out, reason in ((tmp_path, "Is a directory"), (missing, "No such file or directory")):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: cannot write {out}: {reason}\n")


def test_quiver_file_that_is_not_text_exits_2(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    qfile.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "quiver", "export", "--in", str(qfile))
    assert (code, out, err) == (2, "", f"error: cannot read {qfile}: not UTF-8 text\n")


def test_quiver_file_nested_too_deep_exits_2(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    qfile.write_text("[" * 200000)
    code, out, err = run(capsys, "quiver", "export", "--in", str(qfile))
    assert (code, out) == (2, "")
    assert err.startswith("error: quiver file is not JSON: ") and err.count("\n") == 1


def test_internal_invariant_error_exits_4(monkeypatch, capsys):
    def broken(seed0, max_seeds):
        raise InternalInvariantError("c-vector column 0 is zero")

    monkeypatch.setattr(cli, "enumerate_exchange_graph", broken)
    code, out, err = run(capsys, "engine", "enumerate", "--cartan", "A2", "--linear")
    assert (code, out) == (4, "")
    assert err == "error: internal invariant failed: c-vector column 0 is zero\n"


def test_a_failing_f_division_names_its_seed_position_and_g(monkeypatch, capsys):
    real, calls = engine.div_exact, []

    def broken(a, b):
        calls.append(b)
        if len(calls) == 3:
            raise InexactDivisionError("leading coefficient does not divide")
        return real(a, b)

    monkeypatch.setattr(engine, "div_exact", broken)
    code, out, err = run(capsys, "engine", "enumerate", "--cartan", "A3", "--linear")
    assert (code, out, len(calls)) == (4, "", 3)
    assert err == ("error: internal invariant failed: F-polynomial at position 2 of seed "
                   "((0, 1, -1), (0, 1, 0), (1, 0, 0)), g = (0, 1, -1): "
                   "leading coefficient does not divide\n")


def test_closed_stdout_ends_quietly():
    src = os.path.dirname(os.path.dirname(os.path.abspath(clustermod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["engine", "enumerate", "--cartan", "A3", "--linear"]
    proc = subprocess.Popen([sys.executable, "-m", "clustermod.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the report is written, as with `| head`
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


# ---- fuzzed argv: every outcome is an exit code, never a traceback -------------------

HEIGHTS = {"A2": "1:0,2:-1", "A3": "1:0,2:-1,3:0", "D4": "1:0,2:-1,3:0,4:0"}
INTS = st.integers(-2, 3).map(str)
OBJECT_SPECS = st.one_of(
    st.builds("mod:{}".format, st.lists(INTS, max_size=5).map(",".join)),
    st.builds("shp:{}".format, INTS),
    st.text(alphabet="modshp:,+-0123x ", max_size=12),
).flatmap(lambda first: st.sampled_from([first, first + "+shp:1", "mod:0,1+" + first]))
HEIGHT_TEXTS = st.one_of(
    st.sampled_from(sorted(HEIGHTS.values())),
    st.text(alphabet="0123456789:,-x ", max_size=16),
)
LEVEL_TEXTS = st.one_of(st.integers(-2, 4).map(str), st.text(alphabet="0123-x", max_size=3))


@settings(max_examples=60, deadline=None)
@given(cartan=st.sampled_from(sorted(HEIGHTS)), command=st.sampled_from(["psi", "show", "list"]),
       obj=OBJECT_SPECS, xi=st.one_of(st.none(), HEIGHT_TEXTS), level=LEVEL_TEXTS)
@example(cartan="A2", command="psi", obj="--", xi=None, level="2")
@example(cartan="A3", command="show", obj="mod:1", xi="1:0,2:x,3:0", level="2")
def test_cli_fuzz_exit_codes(cartan, command, obj, xi, level):
    argv = ["--cartan", cartan, f"--xi={xi if xi is not None else HEIGHTS[cartan]}"]
    if command == "psi":
        argv = ["psi", *argv, f"--object={obj}", f"--level={level}"]
    elif command == "show":
        argv = ["rep", "show", *argv, f"--object={obj}"]
    else:
        argv = ["rep", "list", *argv, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1


def _main_captured(argv, env=None):
    """Exit code, stdout and stderr of one in-process run, with CLUSTERMOD_MAX_SEEDS
    set to env (or unset when env is None)."""
    out, err = io.StringIO(), io.StringIO()
    # patch.dict restores the whole environment on exit, the popped variable included
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("CLUSTERMOD_MAX_SEEDS", None)
        if env is not None:
            os.environ["CLUSTERMOD_MAX_SEEDS"] = env
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


CAP_TEXTS = st.one_of(st.integers(-2, 20).map(str), st.text(alphabet="0123456789-x ", max_size=4))


@settings(max_examples=30, deadline=None)
@given(cartan=st.sampled_from(["A2", "A3"]), cap=st.one_of(st.none(), CAP_TEXTS),
       env=st.one_of(st.none(), CAP_TEXTS), level=st.one_of(st.none(), st.integers(-1, 3)))
@example(cartan="A3", cap=None, env="abc", level=None)
@example(cartan="A2", cap=None, env=None, level=2)
def test_cli_fuzz_engine_enumerate(cartan, cap, env, level):
    argv = ["engine", "enumerate", "--cartan", cartan, "--linear"]
    if cap is not None:
        argv.append(f"--max-seeds={cap}")
    if level is not None:
        argv.append(f"--level={level}")  # the default family, qcheck, has no level
    code, out, err = _main_captured(argv, env)
    if level is not None:
        assert code == 2
    if code == 0:
        data = json.loads(out)
        assert data["exhaustive"] == (data["seeds"] == {"A2": 5, "A3": 14}[cartan])
    else:
        assert code == 2 and out == ""


# --xi edits that name a vertex off the diagram or a vertex twice
XI_EDITS = st.sampled_from(["", "", ",9:4", ",0:0", ",1:0", ",2:-1", ",1:7"])


@settings(max_examples=40, deadline=None)
@given(cartan=st.sampled_from(["A2", "A3"]), check=st.sampled_from(["tsystem", "psi-kr", "yhat"]),
       xi=st.one_of(st.sampled_from(["1:0,2:-1", "1:0,2:-1,3:0"]).flatmap(
           lambda base: XI_EDITS.map(base.__add__)), HEIGHT_TEXTS),
       level=LEVEL_TEXTS, walks=st.one_of(st.none(), st.integers(-2, 5).map(str),
                                          st.text("0123-x", max_size=3)))
@example(cartan="A3", check="psi-kr", xi="1:0,2:-1,3:0,9:4", level="2", walks=None)
@example(cartan="A3", check="tsystem", xi="1:5,1:0,2:-1,3:0", level="2", walks=None)
@example(cartan="A2", check="yhat", xi="1:0,2:-1", level="2", walks=None)
@example(cartan="A2", check="tsystem", xi="1:0,2:-1", level="2", walks="1")
def test_cli_fuzz_verify(cartan, check, xi, level, walks):
    argv = ["verify", check, "--cartan", cartan, f"--xi={xi}", f"--level={level}"]
    if walks is not None:
        argv.append(f"--walks={walks}")
    code, out, err = _main_captured(argv)
    if check == "yhat" or walks is not None:
        assert code == 2  # yhat does not read the level, and none of these checks reads --walks
    if code:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
    else:
        assert out.startswith(f"PASS {check} ")


LABELS = st.one_of(st.sampled_from(["1", "2", "3", "1'", "2'", "(1,0)", "(2,-1)", "(9,9)"]),
                   st.text(alphabet="(),-'0123x ", max_size=6), st.integers(-2, 3), st.none())
QUIVER_DATA = st.fixed_dictionaries({
    "vertices": st.lists(st.one_of(
        st.fixed_dictionaries({"label": LABELS}, optional={
            "frozen": st.one_of(st.booleans(), st.sampled_from([0, 1, "false", None]))}),
        st.lists(LABELS, max_size=2)), max_size=5),
    "arrows": st.lists(st.fixed_dictionaries(
        {"from": LABELS, "to": LABELS},
        optional={"mult": st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2),
                                    st.booleans())},
    ), max_size=5),
})
# one vertex label as `--seq` may hold it: (i,r), i or i'
SEQ_LABEL = r"(\(-?\d+,-?\d+\)|-?\d+'?)"
MUTABLE_QUIVER = ('{"vertices": [{"label": "1"}, {"label": "2"}, {"label": "2\'", "frozen": true}],'
                  ' "arrows": [{"from": "1", "to": "2"}, {"from": "2\'", "to": "2", "mult": 2}]}')
QUIVER_TEXTS = st.one_of(
    st.sampled_from([MUTABLE_QUIVER]),
    QUIVER_DATA.map(json.dumps),
    st.text(alphabet='{}[]":,0123 avlbe', max_size=20),
)


@pytest.fixture(scope="module")
def quiver_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "q.json"


@settings(max_examples=50, deadline=None)
@given(text=QUIVER_TEXTS, action=st.sampled_from(["mutate", "export"]),
       at=st.lists(LABELS.filter(lambda x: x is not None).map(str), max_size=3),
       seq=st.one_of(st.none(), st.text(alphabet="(),-'0123x", max_size=10)),
       fmt=st.one_of(st.none(), st.sampled_from(["json", "dot", "text", "svg"])))
@example(text=MUTABLE_QUIVER, action="mutate", at=[], seq="abc", fmt=None)
@example(text=MUTABLE_QUIVER, action="mutate", at=[], seq="1,x,2", fmt=None)
@example(text='{"vertices": [{"label": "1"}], "arrows": [{"from": "1", "to": "1",'
              ' "mult": Infinity}]}', action="export", at=[], seq=None, fmt=None)
@example(text='{"vertices": [{"label": "1"}, {"label": "2"}], "arrows": [{"from": "1", "to": "2",'
              ' "mult": 1.5}, {"from": "2", "to": "1", "mult": "-2"}]}',
         action="export", at=[], seq=None, fmt="json")
@example(text='{"vertices": [{"label": "1"}, {"label": "2", "frozen": "false"}], "arrows": []}',
         action="export", at=[], seq=None, fmt="json")
@example(text='{"vertices": [{"label": "1"}, {"label": "2"}], "arrows": [{"from": "1", "to": "2",'
              ' "mult": true}]}', action="mutate", at=["1"], seq=None, fmt=None)
def test_cli_fuzz_quiver_mutate_export(quiver_file, text, action, at, seq, fmt):
    quiver_file.write_text(text)
    argv = ["quiver", action, "--in", str(quiver_file)]
    if action == "mutate":
        argv += [f"--at={label}" for label in at] + ([f"--seq={seq}"] if seq is not None else [])
    if fmt is not None:
        argv.append(f"--format={fmt}")
    code, out, err = _main_captured(argv)
    if code:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
    if _mistyped_field(text):
        assert code == 2
    if code == 0 and action == "mutate" and seq is not None:
        assert re.fullmatch(rf"{SEQ_LABEL}(,{SEQ_LABEL})*", seq), seq


# heights near zero: every orientation of each type shifted by a small offset, or a short
# text that may be malformed; with --rmin >= -12 and --level <= 4 every window stays small
BUILD_HEIGHTS = st.sampled_from(["A2", "A3", "A4", "D4"]).flatmap(lambda name: st.tuples(
    st.just(name),
    st.one_of(
        st.builds(lambda xi, shift: ",".join(f"{i}:{h + shift}" for i, h in sorted(xi.items())),
                  st.sampled_from(orientations(cartan_type(name))), st.integers(-3, 3)),
        st.text(alphabet="0123:,-x ", max_size=10))))


@settings(max_examples=60, deadline=None)
@given(scope=BUILD_HEIGHTS,
       family=st.sampled_from(["gamma", "gammafull", "qxi", "qcheck", "qxil"]),
       level=st.one_of(st.none(), st.integers(-1, 4)), rmin=st.one_of(st.none(), st.integers(-12, 4)),
       fmt=st.one_of(st.none(), st.sampled_from(["json", "dot", "text", "svg"])))
@example(scope=("A3", "1:0,2:-1,3:0"), family="gammafull", level=None, rmin=4, fmt="json")
@example(scope=("D4", "1:0,2:-1,3:0,4:0"), family="qxil", level=0, rmin=None, fmt=None)
@example(scope=("A2", "1:0,2:-1"), family="qxi", level=-1, rmin=None, fmt="text")
@example(scope=("A3", "1:0,2:-1,3:0"), family="gammafull", level=2, rmin=-2, fmt=None)
def test_cli_fuzz_quiver_build(scope, family, level, rmin, fmt):
    cartan, xi = scope
    argv = ["quiver", "build", "--cartan", cartan, f"--xi={xi}", "--family", family]
    argv += [f"--{name}={value}" for name, value in (("level", level), ("rmin", rmin),
                                                      ("format", fmt)) if value is not None]
    code, out, err = _main_captured(argv)
    assert code in (0, 2, 3), (argv, err)
    if level is not None and (family in ("qxi", "qcheck") or rmin is not None):
        assert code == 2, argv  # a level that the build does not read
    if code:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
    elif fmt in (None, "json"):
        quiver = IceQuiver.from_json(out)
        assert quiver.to_json() + "\n" == out
        assert quiver.vertices
    elif fmt == "text":
        assert out.splitlines()[0] != "vertices: "
    else:
        assert "[shape=" in out


def _mistyped_field(text: str) -> bool:
    """A vertex whose "frozen" is not a JSON boolean, or an arrow whose "mult" is not a
    JSON integer, in a quiver file that is a JSON object."""
    try:
        data = json.loads(text)
    except ValueError:
        return False

    def mistyped(entries, key, kind):
        return isinstance(entries, list) and any(
            isinstance(x, dict) and key in x and type(x[key]) is not kind for x in entries)

    return isinstance(data, dict) and (mistyped(data.get("vertices"), "frozen", bool)
                                       or mistyped(data.get("arrows"), "mult", int))


# ---- command output, pinned ----------------------------------------------------------

PINNED_RUNS = {
    "enumerate A3": ["engine", "enumerate", "--cartan", "A3", "--linear"],
    "enumerate A4": ["engine", "enumerate", "--cartan", "A4", "--xi", "1:0,2:-1,3:-2,4:-1"],
    "enumerate D4": ["engine", "enumerate", "--cartan", "D4", "--xi", "1:0,2:-1,3:0,4:0"],
    "enumerate E6": ["engine", "enumerate", "--cartan", "E6", "--xi", "1:0,2:1,3:-1,4:0,5:-1,6:0"],
    "verify all A3": ["verify", "all", "--cartan", "A3", "--linear", "--level", "2"],
    "verify all D4": ["verify", "all", "--cartan", "D4", "--xi", "1:0,2:-1,3:0,4:0",
                      "--level", "2"],
    "verify sequence A5": ["verify", "sequence", "--cartan", "A5", "--xi", "1:0,2:-1,3:0,4:1,5:0",
                           "--level", "5", "--format", "json"],
    "psi table D4": ["table", "psi-monomials", "--cartan", "D4", "--xi", "1:0,2:-1,3:0,4:0",
                     "--level", "3"],
    "psi table E6": ["table", "psi-monomials", "--cartan", "E6",
                     "--xi", "1:0,2:1,3:-1,4:0,5:-1,6:0", "--level", "2"],
    "psi sum D4": ["psi", "--cartan", "D4", "--xi", "1:0,2:-1,3:0,4:0", "--level", "3",
                   "--object", "mod:1,1,0,0+mod:0,1,0,0+shp:3"],
    "enumerate gamma A3": ["engine", "enumerate", "--cartan", "A3", "--linear", "--family", "gamma",
                           "--level", "3", "--max-seeds", "200"],
    "enumerate gamma D4": ["engine", "enumerate", "--cartan", "D4", "--xi", "1:0,2:-1,3:-2,4:0",
                           "--family", "gamma", "--level", "2", "--max-seeds", "300"],
}
# SHA-256 of each run's stdout with the report timings removed: F-polynomials,
# g-vectors, denominators, Psi monomials and every report item, byte for byte
PINNED_DIGESTS = {
    "enumerate A3": "d42f3376c6f314e50d8bccb266fb24e06636e5d82f64cc40a317b79e402b3a92",
    "enumerate A4": "1e9a649733e14948f42978e714b892e849edf193d9c046a8f149d5c484785fa8",
    "enumerate D4": "68d71a0140d2b0d3e4ee1865fb49d54a555d0a829e5641ea085eeeb2a86621f6",
    "enumerate E6": "7035e6aa037a4ab6299e935dd13efe48e8304e13f4d45b056eb890dbc9ea5691",
    "verify all A3": "e99e4f1c0834b888c65ee67ff2533318471162f1028d85c11f9f4f0b33f65b6b",
    "verify all D4": "262ec01574f2486a2d2334d7aae54e44b23f8d327cb575509c366c67d0640602",
    "verify sequence A5": "6b6ed5b44fa3c43c54091c92f257b4c1ee536020a131116573784d6e0ffe8677",
    "psi table D4": "5b7a589c297a4ae20f3297778a7de8447debdb84cd352ca6e76f18854a87555d",
    "psi table E6": "1498844bf9bce44c819bd33037bf3fb2ffad1961f0e0076d0cc63ca924b2455f",
    "psi sum D4": "cdc18b93a6a2c74f668d4f5eabca086d84b312b368c3f4ce1e5bbd5f89e41ac7",
    "enumerate gamma A3": "40c3504afea07be5a1366bac7ae8262592fbb9a75a1854df32bd5a1c1f7b85e8",
    "enumerate gamma D4": "780b2ccc6bc5f860dd68d5d46886707e31d407de3c0ae158d0fc24bc0a2a37a0",
}


def _pinned_digests() -> dict[str, str]:
    out = {}
    for name, argv in PINNED_RUNS.items():
        code, text, _ = _main_captured(argv)
        assert code == 0, name
        text = re.sub(r' \(\d+\.\d\ds\)$', "", text, flags=re.M)  # text reports
        text = re.sub(r'\n *"seconds": [0-9.e-]+', "", text)  # JSON reports
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_command_output_is_pinned():
    assert _pinned_digests() == PINNED_DIGESTS

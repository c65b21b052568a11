import json

import pytest

from clustermod.cli import main


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
                       "--object", "mod:0,1,1+shp:2")
    assert code == 0
    assert out.strip() == "Y[1,-2] Y[1,0] Y[2,-3] Y[2,-1] Y[3,-6] Y[3,-4]"


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


def test_verify_pass_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "goldens")
    assert code == 0
    assert out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "tsystem", "--cartan", "A2", "--xi", "1:0,2:-1")
    assert code == 0


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

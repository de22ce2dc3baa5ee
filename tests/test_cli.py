import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mes import construct, core, io
from mes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, state):
    path = tmp_path / name
    io.save_state(state, str(path))
    return str(path)


def test_check_mes_json(capsys):
    code, out, _ = run(capsys, "--json", "check-mes", "--dims", "3,2,2")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "check-mes"
    assert report["result"] is False


def test_check_mes_true(capsys):
    code, out, _ = run(capsys, "check-mes", "--dims", "4,2,2")
    assert code == 0
    assert "True" in out


def test_check_mes_trivial_party_exit_2(capsys):
    code, _, err = run(capsys, "check-mes", "--dims", "2,1")
    assert code == 2
    assert "2" in err


def test_classify_phi2(capsys, tmp_path, phi2_322):
    path = write_state(tmp_path, "phi2.json", phi2_322)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert out.strip() == "2"


def test_construct_round_trips_through_consumers(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "maximal-rank-d1", "--dims", "3,2,2")
    assert code == 0
    path = tmp_path / "state.json"
    path.write_text(out)
    code, out, _ = run(capsys, "maximal", str(path))
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "--json", "classify", str(path))
    assert code == 0
    assert json.loads(out)["result"] == 1


def test_construct_deterministic(capsys):
    _, first, _ = run(capsys, "construct", "canonical", "--dims", "5,3,2", "--r", "2")
    _, second, _ = run(capsys, "construct", "canonical", "--dims", "5,3,2", "--r", "2")
    assert first == second


def test_construct_missing_option_exit_2(capsys):
    code, _, err = run(capsys, "construct", "epr")
    assert code == 2
    assert "--d" in err


def test_equiv_undecidable_exit_3(capsys, tmp_path, ghz):
    a = write_state(tmp_path, "a.json", ghz)
    b = write_state(tmp_path, "b.json", ghz)
    code, _, err = run(capsys, "equiv", a, b)
    assert code == 3
    assert "undecidable" in err


def test_equiv_bipartite(capsys, tmp_path, bell):
    a = write_state(tmp_path, "a.json", bell)
    b = write_state(
        tmp_path, "b.json", core.make_state([2, 2], [1, 0, 0, 2])
    )
    code, out, _ = run(capsys, "--json", "equiv", a, b)
    assert code == 0
    assert json.loads(out)["result"] is True


def test_equiv_hyperplane(capsys, tmp_path, phi1_322, phi2_322):
    a = write_state(tmp_path, "a.json", phi1_322)
    b = write_state(tmp_path, "b.json", phi2_322)
    code, out, _ = run(capsys, "--json", "equiv", a, b)
    assert code == 0
    assert json.loads(out)["result"] is False


def test_equiv_across_profiles_exit_2(capsys, tmp_path):
    a = write_state(tmp_path, "a.json", construct.canonical_maximal((5, 3, 2), 1))
    b = write_state(tmp_path, "b.json", construct.canonical_maximal((11, 4, 3), 1))
    code, out, err = run(capsys, "--json", "equiv", a, b)
    assert code == 2
    assert out == "" and "dims differ" in err


def test_witness_case1(capsys, tmp_path):
    a, b = construct.case1_pair(2)
    pa = write_state(tmp_path, "a.json", a)
    pb = write_state(tmp_path, "b.json", b)
    code, out, _ = run(capsys, "--json", "witness", pa, pb)
    assert code == 0
    assert json.loads(out)["result"] == [[0, 2], [0, 1]]


def test_complement_command(capsys, tmp_path, phi1_322):
    path = write_state(tmp_path, "phi1.json", phi1_322)
    code, out, _ = run(capsys, "--json", "complement", path, "--pivot", "0")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["k"] == 1
    assert result["label"] == 1


def test_reach_command(capsys, tmp_path):
    target = write_state(
        tmp_path, "t.json", core.make_state([4, 2, 2], [1] + [0] * 15)
    )
    code, out, _ = run(capsys, "--json", "reach", "--dims", "4,2,2", target)
    assert code == 0
    ops = io.ops_from_dict(json.loads(out)["result"])
    reproduced = core.apply_local(construct.mes_state((4, 2, 2)), ops)
    assert np.array_equal(reproduced.amplitudes, [1] + [0] * 15)


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "--json", "catalog", "--dims", "4,3,2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["finite"] == "yes"
    assert result["max_class_count"] == 5


def test_rank_bounds_command(capsys):
    code, out, _ = run(capsys, "--json", "rank-bounds", "--dims", "5,3,3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["lower"] == 6 and result["upper"] == 9 and not result["exact"]


def test_rank_lb_and_schmidt(capsys, tmp_path, phi2_322):
    path = write_state(tmp_path, "phi2.json", phi2_322)
    code, out, _ = run(capsys, "--json", "rank-lb", path)
    assert code == 0 and json.loads(out)["result"] == 3
    code, out, _ = run(capsys, "--json", "schmidt", path, "--subset", "0")
    assert code == 0 and json.loads(out)["result"]["rank"] == 3


def test_schmidt_human_output_plain_floats(capsys, tmp_path, bell):
    path = write_state(tmp_path, "bell.json", bell)
    code, out, _ = run(capsys, "schmidt", path, "--subset", "1")
    assert code == 0
    assert out.strip() == "rank = 2, singular values = [1.0, 1.0]"


def test_bad_rank_eps_exit_1(capsys, tmp_path, monkeypatch, bell):
    path = write_state(tmp_path, "bell.json", bell)
    monkeypatch.setenv("MES_RANK_EPS", "2")
    code, _, err = run(capsys, "maximal", path)
    assert code == 1
    assert "MES_RANK_EPS" in err


@pytest.mark.parametrize("doc", [
    {"dims": "22", "amps": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    {"dims": [2, 2], "amps": [1, 0, 0, 1]},
    {"dims": [2, 2], "amps": [[1, 0, 0], [0], [0, 0], [1, 0]]},
])
def test_malformed_state_exit_1(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "maximal", str(path))
    assert code == 1
    assert out == "" and "input error" in err


IDENTITY = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}


@pytest.mark.parametrize("command, doc", [
    ("apply", {"ops": [dict(IDENTITY, rows="2"), IDENTITY]}),
    ("apply", {"ops": [dict(IDENTITY, rows=True), IDENTITY]}),
    ("apply", {"ops": [dict(IDENTITY, rows=-1), IDENTITY]}),
    ("apply", [IDENTITY, IDENTITY]),
    ("apply", {"ops": 5}),
    ("apply", {"ops": [5]}),
    ("verify-decomp", {"terms": 5}),
    ("verify-decomp", {"terms": [5]}),
    ("verify-decomp", [[[[1, 0]], [[1, 0]]]]),
])
def test_malformed_ops_and_decomposition_exit_1(capsys, tmp_path, bell, command, doc):
    state = write_state(tmp_path, "bell.json", bell)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, state, str(path))
    assert code == 1
    assert out == "" and "input error" in err


def test_non_finite_amplitude_exit_2(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"dims": [2, 2], "amps": [[1, 0], [0, 0], [0, 0], [NaN, 0]]}')
    code, _, err = run(capsys, "maximal", str(path))
    assert code == 2
    assert "finite" in err


def test_verify_decomp_command(capsys, tmp_path):
    mm = construct.matmul_tensor(2)
    from mes import rank as rank_mod

    state_path = write_state(tmp_path, "mm.json", mm)
    decomp_path = tmp_path / "strassen.json"
    decomp_path.write_text(
        json.dumps(io.decomposition_to_dict(rank_mod.strassen_decomposition()))
    )
    code, out, _ = run(capsys, "--json", "verify-decomp", state_path, str(decomp_path))
    assert code == 0
    assert json.loads(out)["result"]["verified"] is True


def test_apply_command(capsys, tmp_path, bell):
    state_path = write_state(tmp_path, "bell.json", bell)
    ops_path = tmp_path / "ops.json"
    tup = core.LocalOperatorTuple(
        (np.array([[1, 0], [0, 0]], dtype=complex), np.eye(2, dtype=complex))
    )
    ops_path.write_text(json.dumps(io.ops_to_dict(tup)))
    code, out, _ = run(capsys, "apply", state_path, str(ops_path))
    assert code == 0
    result = json.loads(out)
    assert result["amps"][0] == [1.0, 0.0]
    assert result["amps"][3] == [0.0, 0.0]


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "maximal", "/nonexistent/state.json")
    assert code == 1


def test_byte_identical_reports(capsys, tmp_path, phi2_322):
    path = write_state(tmp_path, "phi2.json", phi2_322)
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "--json", "local-ranks", path)
        outputs.add(out)
    assert len(outputs) == 1


OVERFLOWING = {"dims": [2, 2], "amps": [[1e308, 1e308]] * 4}


@pytest.mark.parametrize("argv", [
    ["rank-lb"], ["maximal"], ["schmidt", "--subset", "0"], ["local-ranks"],
])
def test_overflowing_state_is_undecidable(capsys, tmp_path, argv):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(OVERFLOWING))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 3
    assert out == "" and "undecidable" in err


@pytest.mark.parametrize("entry", [np.nan, 1e308])  # 1e308 * 1e308 overflows
def test_apply_non_finite_result_exit_2(capsys, tmp_path, bell, entry):
    state = write_state(tmp_path, "bell.json", bell)
    op = {"rows": 2, "cols": 2, "entries": [[entry, 0]] * 4}
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps({"ops": [op, op]}))
    code, out, err = run(capsys, "apply", state, str(ops_path))
    assert code == 2
    assert out == "" and "finite" in err


def test_rank_lb_single_party_exit_2(capsys, tmp_path):
    path = write_state(tmp_path, "one.json", core.make_state([2], [1, 0]))
    code, out, err = run(capsys, "rank-lb", path)
    assert code == 2
    assert out == "" and "two parties" in err


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_unallocatable_state_exit_1(capsys, flags):
    # 536870912^2 complex amplitudes take 4 EiB, beyond any 64-bit user address space
    code, out, err = run(capsys, *flags, "construct", "epr", "--d", "536870912")
    assert (code, out) == (1, "")
    assert err.startswith("input error: ")


def test_seed_is_an_option_of_construct_only(capsys, tmp_path):
    path = write_state(tmp_path, "product.json", core.make_state([2, 2, 2], [1] + [0] * 7))
    assert run(capsys, "construct", "augment", "--state", path, "--seed", "3")[0] == 0
    for argv in (["--seed", "3", "construct", "epr", "--d", "2"],
                 ["maximal", path, "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_overflowing_decomposition_exit_2_without_warning(tmp_path, bell):
    state = write_state(tmp_path, "bell.json", bell)
    huge = [[1e308, 0], [1e308, 0]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"terms": [[huge, huge]]}))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "mes.cli", "verify-decomp", state, str(path)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "finite" in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_schmidt_human_output_keeps_huge_singular_values(capsys, tmp_path):
    # rounding to 12 decimals scales by 1e12, which overflows past ~1.8e296
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [1, 2], "amps": [[1e308, 1e308], [1e308, 0]]}))
    code, out, _ = run(capsys, "schmidt", str(path), "--subset", "1")
    assert (code, out) == (0, "rank = 1, singular values = [1.7320508075688772e+308]\n")

import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mes import construct, core, io
from mes.cli import COMMANDS, main


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


@pytest.mark.parametrize("value", ["2", "tight", ""])
def test_bad_rank_eps_exit_1(capsys, tmp_path, monkeypatch, bell, value):
    path = write_state(tmp_path, "bell.json", bell)
    monkeypatch.setenv("MES_RANK_EPS", value)
    code, _, err = run(capsys, "maximal", path)
    assert code == 1
    assert "MES_RANK_EPS" in err


BELL_AMPS = [[1, 0], [0, 0], [0, 0], [1, 0]]
# (document, what the error names)
MALFORMED_STATES = [
    ({"dims": "22", "amps": BELL_AMPS}, "dims must be a list of integers"),
    ({"dims": [2, 2], "amps": [1, 0, 0, 1]}, "[re, im]"),
    ({"dims": [2, 2], "amps": [[1, 0, 0], [0], [0, 0], [1, 0]]}, "[re, im]"),
    ({"dims": [2, 2]}, "missing field 'amps'"),
    ({"amps": BELL_AMPS}, "missing field 'dims'"),
    ({"dims": [2, 2], "amps": [[True, False], [0, 0], [0, 0], [1, 0]]}, "number pairs (got bool)"),
]


@pytest.mark.parametrize("doc, named", MALFORMED_STATES,
                         ids=[f"doc{i}" for i in range(len(MALFORMED_STATES))])
def test_malformed_state_exit_1(capsys, tmp_path, doc, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "maximal", str(path))
    assert code == 1
    assert out == "" and err.startswith("input error") and named in err and str(path) in err


IDENTITY = {"rows": 2, "cols": 2, "entries": BELL_AMPS}
# (command, document, what the error names)
MALFORMED_DOCS = [
    ("apply", {"ops": [dict(IDENTITY, rows="2"), IDENTITY]}, "rows and cols"),
    ("apply", {"ops": [dict(IDENTITY, rows=True), IDENTITY]}, "rows and cols"),
    ("apply", {"ops": [dict(IDENTITY, rows=-1), IDENTITY]}, "rows and cols"),
    ("apply", [IDENTITY, IDENTITY], "holding 'ops'"),
    ("apply", {"ops": 5}, "'ops' must be a list"),
    ("apply", {"ops": [5]}, "each operator"),
    ("verify-decomp", {"terms": 5}, "'terms' must be a list"),
    ("verify-decomp", {"terms": [5]}, "each term"),
    ("verify-decomp", [[[[1, 0]], [[1, 0]]]], "holding 'terms'"),
    ("apply", {"ops": [{"rows": 2, "entries": BELL_AMPS}, IDENTITY]}, "missing field 'cols'"),
    ("apply", {"operators": [IDENTITY, IDENTITY]}, "missing field 'ops'"),
    ("verify-decomp", {}, "missing field 'terms'"),
    ("apply", {"ops": [dict(IDENTITY, entries=[[True, 0]] + BELL_AMPS[1:]), IDENTITY]},
     "number pairs (got bool)"),
    ("apply", {"ops": [dict(IDENTITY, entries=BELL_AMPS[:3]), IDENTITY]},
     "operator 0 has 3 entries, expected rows*cols = 4"),
]


@pytest.mark.parametrize("command, doc, named", MALFORMED_DOCS,
                         ids=[f"{case[0]}-doc{i}" for i, case in enumerate(MALFORMED_DOCS)])
def test_malformed_ops_and_decomposition_exit_1(capsys, tmp_path, bell, command, doc, named):
    state = write_state(tmp_path, "bell.json", bell)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, state, str(path))
    assert code == 1
    assert out == "" and err.startswith("input error") and named in err and str(path) in err


@pytest.mark.parametrize("command", ["equiv", "witness"])
def test_truncated_second_file_is_named(capsys, tmp_path, bell, command):
    first = write_state(tmp_path, "first.json", bell)
    second = tmp_path / "second.json"
    second.write_text(json.dumps(io.state_to_dict(bell))[:-9])
    code, out, err = run(capsys, command, first, str(second))
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {second}: ") and first not in err


# (command, how many valid Bell-state files precede the deep one)
@pytest.mark.parametrize("command, states", [("maximal", 0), ("apply", 1), ("verify-decomp", 1)])
def test_deeply_nested_json_exit_1_without_traceback(tmp_path, bell, command, states):
    # json.dumps cannot build this document: it nests deeper than Python recurses
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    paths = [write_state(tmp_path, "bell.json", bell)] * states + [str(path)]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "mes.cli", command, *paths],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("input error") and "Traceback" not in proc.stderr


BELL = {"dims": [2, 2], "amps": BELL_AMPS}
E0 = [[1, 0], [0, 0]]
# (command, state document, second document or None, the refusal): inputs
# that parse but that no question can take
REFUSED_INPUTS = [
    ("maximal", {"dims": [], "amps": []}, None, "profile needs at least one party"),
    ("apply", BELL, {"ops": [IDENTITY]}, "1 operators for 2 parties"),
    ("verify-decomp", BELL, {"terms": [[E0]]}, "term 0 has 1 factors for 2 parties"),
    ("verify-decomp", BELL, {"terms": [[[[0, 0], [0, 0]], E0]]}, "term 0 contains a zero factor"),
]


@pytest.mark.parametrize("command, state, doc, refusal", REFUSED_INPUTS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(REFUSED_INPUTS)])
def test_refused_input_exit_2(capsys, tmp_path, command, state, doc, refusal):
    paths = []
    for name, content in (("state.json", state), ("doc.json", doc)):
        if content is not None:
            (tmp_path / name).write_text(json.dumps(content))
            paths.append(str(tmp_path / name))
    assert run(capsys, command, *paths) == (2, "", f"precondition violated: {refusal}\n")


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


# command -> how many state files it reads
ONE_PARTY_COMMANDS = {"rank-lb": 1, "local-ranks": 1, "maximal": 1, "witness": 2, "equiv": 2}


@pytest.mark.parametrize("command", ONE_PARTY_COMMANDS)
def test_one_party_state_exit_2(capsys, tmp_path, command):
    # every question about cuts needs two parties, and says so the same way
    path = write_state(tmp_path, "one.json", core.make_state([2], [1, 0]))
    code, out, err = run(capsys, command, *[path] * ONE_PARTY_COMMANDS[command])
    assert code == 2
    assert out == "" and err == "precondition violated: at least two parties required\n"


@pytest.mark.parametrize("dims", ["5", "5,1"])
def test_construct_mes_refuses_as_check_mes_does(capsys, dims):
    # a space with no party to pair or a trivial party has no MES to build
    refusal = run(capsys, "check-mes", "--dims", dims)
    assert refusal[0] == 2
    assert run(capsys, "construct", "mes", "--dims", dims) == refusal


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_unallocatable_state_exit_1(capsys, flags):
    # 536870912^2 complex amplitudes take 4 EiB, beyond any 64-bit user address space
    code, out, err = run(capsys, *flags, "construct", "epr", "--d", "536870912")
    assert (code, out) == (1, "")
    assert err.startswith("input error: ")


def test_unallocatable_rank_d1_profile_fails_fast():
    # the tensor is allocated before any of its 9e8 terms is listed; the child
    # runs under a 2 GiB address-space cap so a regression cannot exhaust the host
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mes.cli", "construct", "maximal-rank-d1",
         "--dims", "900000000,30000,30000"],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("input error: ") and "array" in proc.stderr


def test_augment_refuses_a_profile_without_full_rank_states(capsys, tmp_path):
    path = str(tmp_path / "mes.json")
    assert run(capsys, "construct", "mes", "--dims", "5,2,2", "-o", path)[0] == 0
    assert run(capsys, "construct", "augment", "--state", path) == (
        2, "", "precondition violated: no state on dims (5, 2, 2) has full local ranks: "
        "the largest dimension exceeds the product of the others\n")


def test_options_follow_their_command_and_augment_has_no_seed(capsys, tmp_path):
    # -o is an option of construct, so before the command it is a usage error
    # that names it; only a word that is no command is an invalid choice
    path = write_state(tmp_path, "product.json", core.make_state([2, 2, 2], [1] + [0] * 7))
    for argv, message in (
            (["construct", "augment", "--state", path, "--seed", "3"],
             "mes construct: error: unrecognized arguments: --seed 3"),
            (["-o", str(tmp_path / "x.json"), "construct", "epr", "--d", "2"],
             "mes: error: -o before the command"),
            (["--json", "--d", "2", "construct", "epr"], "mes: error: --d before the command"),
            (["nope"], "mes: error: argument command: invalid choice: 'nope'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["equiv", "witness", "apply", "verify-decomp"])
def test_a_second_double_dash_is_a_usage_error(capsys, tmp_path, bell, command):
    # some argparse versions drop the second "--" and leave the second
    # positional an empty list, which reached open() as a TypeError
    path = write_state(tmp_path, "bell.json", bell)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--", "--"])
    assert exc.value.code == 2
    assert f"mes {command}: error: " in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [["check-mes", "--dims", "3,2,2"], ["maximal", "STATE"],
                                  ["construct", "epr", "--d", "2", "--json"]])
def test_one_call_builds_two_parsers(capsys, tmp_path, monkeypatch, bell, argv):
    # mes's own parser and the parser of the command it runs, no other
    argv = [write_state(tmp_path, "bell.json", bell) if a == "STATE" else a for a in argv]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, *argv)[0] == 0
    assert built == ["mes", f"mes {argv[0]}"]


def test_help_lists_every_command_with_its_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, command in COMMANDS.items():
        assert any(line.split() == [name] + command.help.split() for line in lines), name


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_has_its_own_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: mes {name} ")

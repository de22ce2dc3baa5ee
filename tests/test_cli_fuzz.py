"""Generated state and operator documents through the CLI: every run ends in a
known exit code, and every successful --json report is strict JSON."""

import contextlib
import io as stdio
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mes.cli import COMMANDS, FAMILIES, main

FINITE = st.one_of(st.sampled_from([1e308, -1e308, 0.0, 1.0, -1.0]),
                   st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def complex_entries(draw, count):
    """count [re, im] pairs; one in four lists gets one NaN or infinite part."""
    pairs = draw(st.lists(st.tuples(FINITE, FINITE).map(list), min_size=count, max_size=count))
    if pairs and draw(st.integers(0, 3)) == 0:
        pairs[draw(st.integers(0, count - 1))][draw(st.integers(0, 1))] = draw(NON_FINITE)
    return pairs


@st.composite
def state_docs(draw):
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    # mostly the right number of amplitudes, sometimes one too many
    count = math.prod(dims) + draw(st.sampled_from([0, 0, 0, 1]))
    return {"dims": dims, "amps": complex_entries(draw, count)}


@st.composite
def ops_docs(draw, dims):
    ops = []
    for d in dims:
        rows = draw(st.integers(1, 3))
        cols = draw(st.sampled_from([max(d, 1)] * 3 + [1, 2, 3]))
        ops.append({"rows": rows, "cols": cols, "entries": complex_entries(draw, rows * cols)})
    return {"ops": ops}


@st.composite
def decomposition_docs(draw, dims):
    """Zero to two terms; factor lengths mostly match the party dimensions."""
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        lengths = [draw(st.sampled_from([max(d, 1)] * 3 + [1, 2])) for d in dims]
        terms.append([complex_entries(draw, n) for n in lengths])
    return {"terms": terms}


# small, malformed and out-of-range integer lists; every profile they name is tiny
INT_LISTS = st.one_of(
    st.lists(st.integers(-1, 4), min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", ",", "3,,2", "a", "2.5", "3 2", "0x3", "--", "1e3"]),
)


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_json(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json"] + argv)
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_documents_end_in_a_known_exit(data):
    state = data.draw(state_docs())
    ops = data.draw(ops_docs(state["dims"]))
    with tempfile.TemporaryDirectory() as tmp:
        state_path = pathlib.Path(tmp, "state.json")
        ops_path = pathlib.Path(tmp, "ops.json")
        state_path.write_text(json.dumps(state))
        ops_path.write_text(json.dumps(ops))
        for argv in (["maximal", str(state_path)], ["local-ranks", str(state_path)],
                     ["rank-lb", str(state_path)], ["apply", str(state_path), str(ops_path)]):
            code, out = run_json(argv)
            assert code in (0, 1, 2, 3)
            if code == 0:
                assert strict_json(out)["command"] == argv[0]
            else:
                assert out == ""


def run_argv(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_documents_reach_every_document_command(data):
    a = data.draw(state_docs())
    b = data.draw(st.one_of(st.just(a), state_docs()))
    decomposition = data.draw(decomposition_docs(a["dims"]))
    subset = data.draw(INT_LISTS)
    dims = data.draw(st.one_of(st.just(",".join(map(str, a["dims"]))), INT_LISTS))
    pivot = str(data.draw(st.integers(-1, 3)))
    seed = str(data.draw(st.integers(0, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("a", a), ("b", b), ("d", decomposition)):
            paths[name] = str(pathlib.Path(tmp, f"{name}.json"))
            pathlib.Path(paths[name]).write_text(json.dumps(doc))
        pa, pb = paths["a"], paths["b"]
        for argv in (["verify-decomp", pa, paths["d"]], ["equiv", pa, pb], ["witness", pa, pb],
                     ["complement", pa, "--pivot", pivot], ["classify", pa],
                     ["schmidt", pa, "--subset", subset], ["reach", pa, "--dims", dims],
                     ["construct", "augment", "--state", pa, "--seed", seed]):
            code, out = run_argv(["--json"] + argv)
            assert code in (0, 1, 2, 3)
            if code == 0:
                assert strict_json(out)["command"] == argv[0]
            else:
                assert out == ""


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    phi1 = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0],
            [0, 0], [0, 0], [0, 0], [1, 0]]
    for name, doc in (("state", {"dims": [3, 2, 2], "amps": phi1}), ("garbage", [1, 2])):
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    return [str(tmp / name) for name in ("state.json", "garbage.json", "missing.json")]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generated_argv_ends_in_a_known_exit(argv_files, data):
    """Commands with options missing, unknown families, bad integer lists and
    stray flags (no --out, so nothing is written): argparse's usage error
    counts as exit 2."""
    token = st.one_of(
        st.sampled_from(list(FAMILIES) + ["nope"]),
        st.sampled_from(["--dims", "--d", "--r", "--m", "--which", "--state", "--pivot",
                         "--subset", "--seed", "--json"]),
        INT_LISTS,
        st.sampled_from(argv_files),
    )
    command = data.draw(st.sampled_from(list(COMMANDS) + ["nope"]))
    argv = [command] + data.draw(st.lists(token, max_size=5))
    code, out = run_argv(argv)
    assert code in (0, 1, 2, 3)
    if code == 0 and "--json" in argv:
        assert strict_json(out)["command"] == command

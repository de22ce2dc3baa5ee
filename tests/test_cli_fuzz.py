"""Generated state and operator documents through the CLI: every run ends in a
known exit code, and every successful --json report is strict JSON."""

import contextlib
import io as stdio
import json
import math
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mes.cli import main

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

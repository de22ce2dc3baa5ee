"""Exact stdout and exit code of every CLI command, human and --json.

Every input is a 0/1 state, dyadic operator entries or a dims-only query, so
each output is exact.
Files live in the working directory under fixed names, which keeps the
`input` paths of the --json reports fixed too. The complement vector's sign
is the one LAPACK's SVD returns.
"""

import json

import numpy as np
import pytest

from mes import construct, core, io, rank
from mes.cli import main


@pytest.fixture
def files(tmp_path, monkeypatch, ghz, phi1_322, phi2_322, bell):
    monkeypatch.chdir(tmp_path)
    case_a, case_b = construct.case1_pair(2)
    states = {
        "ghz": ghz, "phi1": phi1_322, "phi2": phi2_322, "bell": bell,
        "bell2": core.make_state([2, 2], [1, 0, 0, 2]),
        "case_a": case_a, "case_b": case_b,
        "target": core.make_state([4, 2, 2], [1] + [0] * 15),
        "product": core.make_state([2, 2, 2], [1] + [0] * 7),
        "mm": construct.matmul_tensor(2),
    }
    for name, state in states.items():
        io.save_state(state, f"{name}.json")
    strassen = rank.strassen_decomposition()
    for name, decomp in [("strassen", strassen),
                         ("strassen6", strassen[:6])]:
        with open(f"{name}.json", "w") as fh:
            json.dump(io.decomposition_to_dict(decomp), fh)
    projector = core.LocalOperatorTuple(
        (np.array([[1, 0], [0, 0]], dtype=complex), np.eye(2, dtype=complex))
    )
    with open("ops.json", "w") as fh:
        json.dump(io.ops_to_dict(projector), fh)
    # rectangular, complex and distinct per party, so a change of axis order
    # shows; dyadic entries keep every amplitude exact
    ops3 = core.LocalOperatorTuple((
        np.array([[0.5, -1.25, 2], [0.75j, 1, -0.5 + 0.25j]]),
        np.array([[1.5, 0.25], [-1, 0.5j]]),
        np.array([[0.125, 1], [2, -0.75]]),
    ))
    with open("ops3.json", "w") as fh:
        json.dump(io.ops_to_dict(ops3), fh)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


# (argv, exit code, human stdout, --json stdout)
GOLDEN = {
    "check-mes-false": (
        "check-mes --dims 3,2,2", 0,
        'mes_exists(3, 2, 2) = False\n',
        '{"command": "check-mes", "input": {"dims": [3, 2, 2]}, '
        '"provenance": ["existence-condition"], "result": false}\n',
    ),
    "check-mes-true": (
        "check-mes --dims 4,2,2", 0,
        'mes_exists(4, 2, 2) = True\n',
        '{"command": "check-mes", "input": {"dims": [4, 2, 2]}, '
        '"provenance": ["existence-condition"], "result": true}\n',
    ),
    "check-mes-trivial": (
        "check-mes --dims 2,1", 2,
        "",
        "",
    ),
    "maximal": (
        "maximal phi2.json", 0,
        'maximal = True\n',
        '{"command": "maximal", "input": {"state": "phi2.json"}, '
        '"provenance": ["full-local-ranks"], "result": true}\n',
    ),
    "maximal-missing-file": (
        "maximal missing.json", 1,
        "",
        "",
    ),
    "complement": (
        "complement phi1.json --pivot 0", 0,
        'k = 1, label = 1\n{"dims": [1, 2, 2], "amps": [[0.0, -0.0], [0.0, '
        '-0.0], [-1.0, -0.0], [0.0, -0.0]]}\n',
        '{"command": "complement", "input": {"pivot": 0, "state": '
        '"phi1.json"}, "provenance": ["complement-map"], "result": '
        '{"complement": {"amps": [[0.0, -0.0], [0.0, -0.0], [-1.0, -0.0], '
        '[0.0, -0.0]], "dims": [1, 2, 2]}, "k": 1, "label": 1, "pivot": '
        '0}}\n',
    ),
    "classify": (
        "classify phi2.json", 0,
        '2\n',
        '{"command": "classify", "input": {"state": "phi2.json"}, '
        '"provenance": ["hyperplane-classification"], "result": 2}\n',
    ),
    "equiv-bipartite": (
        "equiv bell.json bell2.json", 0,
        'equivalent = True\n',
        '{"command": "equiv", "input": {"a": "bell.json", "b": '
        '"bell2.json"}, "provenance": ["bipartite-schmidt-rank"], '
        '"result": true}\n',
    ),
    "equiv-hyperplane": (
        "equiv phi1.json phi2.json", 0,
        'equivalent = False\n',
        '{"command": "equiv", "input": {"a": "phi1.json", "b": '
        '"phi2.json"}, "provenance": ["hyperplane-classification"], '
        '"result": false}\n',
    ),
    "equiv-undecidable": (
        "equiv ghz.json ghz.json", 3,
        "",
        "",
    ),
    "witness": (
        "witness case_a.json case_b.json", 0,
        'witness cuts: (0, 2) (0, 1)\n',
        '{"command": "witness", "input": {"a": "case_a.json", "b": '
        '"case_b.json"}, "provenance": ["rank-monotonicity"], "result": '
        '[[0, 2], [0, 1]]}\n',
    ),
    "witness-none": (
        "witness ghz.json ghz.json", 0,
        'no witness found\n',
        '{"command": "witness", "input": {"a": "ghz.json", "b": '
        '"ghz.json"}, "provenance": ["rank-monotonicity"], "result": '
        'null}\n',
    ),
    "reach": (
        "reach target.json --dims 4,2,2", 0,
        '{"ops": [{"rows": 4, "cols": 4, "entries": [[1.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, {"rows": 2, "cols": 2, '
        '"entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}, '
        '{"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [1.0, 0.0]]}]}\n',
        '{"command": "reach", "input": {"dims": [4, 2, 2], "target": '
        '"target.json"}, "provenance": ["mes-sufficiency"], "result": '
        '{"ops": [{"cols": 4, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0]], "rows": 4}, {"cols": 2, '
        '"entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], '
        '"rows": 2}, {"cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [1.0, 0.0]], "rows": 2}]}}\n',
    ),
    "catalog-432": (
        "catalog --dims 4,3,2", 0,
        '(4, 3, 2): finite = yes, maximal classes = 5\n',
        '{"command": "catalog", "input": {"dims": [4, 3, 2]}, '
        '"provenance": ["finite-class-catalog"], "result": {"dims": [4, '
        '3, 2], "finite": "yes", "max_class_count": 5, "source": '
        '"enumerated 4x3x2 maximal classes", "total_class_count": null}}\n',
    ),
    "catalog-322": (
        "catalog --dims 3,2,2", 0,
        '(3, 2, 2): finite = yes, maximal classes = 2, total classes = 8\n',
        '{"command": "catalog", "input": {"dims": [3, 2, 2]}, '
        '"provenance": ["finite-class-catalog"], "result": {"dims": [3, '
        '2, 2], "finite": "yes", "max_class_count": 2, "source": '
        '"3x2x2 enumeration", "total_class_count": 8}}\n',
    ),
    "catalog-unknown": (
        "catalog --dims 4,4,4", 0,
        '(4, 4, 4): finite = unknown\n',
        '{"command": "catalog", "input": {"dims": [4, 4, 4]}, '
        '"provenance": ["finite-class-catalog"], "result": {"dims": [4, '
        '4, 4], "finite": "unknown", "max_class_count": null, "source": '
        'null, "total_class_count": null}}\n',
    ),
    "construct-epr": (
        "construct epr --d 2", 0,
        '{"dims": [2, 2], "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[1.0, 0.0]]}\n',
        '{"command": "construct", "input": {"family": "epr"}, '
        '"provenance": ["construction"], "result": {"amps": [[1.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "dims": [2, 2]}}\n',
    ),
    "construct-epr-missing-d": (
        "construct epr", 2,
        "",
        "",
    ),
    "construct-mes": (
        "construct mes --dims 4,2,2", 0,
        '{"dims": [4, 2, 2], "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [1.0, 0.0]]}\n',
        '{"command": "construct", "input": {"family": "mes"}, '
        '"provenance": ["construction"], "result": {"amps": [[1.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "dims": [4, '
        '2, 2]}}\n',
    ),
    "construct-maximal-rank-d1": (
        "construct maximal-rank-d1 --dims 3,2,2", 0,
        '{"dims": [3, 2, 2], "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, '
        '0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}\n',
        '{"command": "construct", "input": {"family": '
        '"maximal-rank-d1"}, "provenance": ["construction"], "result": '
        '{"amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0]], "dims": [3, 2, 2]}}\n',
    ),
    "construct-canonical": (
        "construct canonical --dims 3,2,2 --r 1", 0,
        '{"dims": [3, 2, 2], "amps": [[0.0, -0.0], [1.0, -0.0], [0.0, '
        '-0.0], [0.0, -0.0], [0.0, -0.0], [0.0, -0.0], [1.0, -0.0], [0.0, '
        '-0.0], [0.0, -0.0], [0.0, -0.0], [0.0, -0.0], [1.0, -0.0]]}\n',
        '{"command": "construct", "input": {"family": "canonical"}, '
        '"provenance": ["construction"], "result": {"amps": [[0.0, '
        '-0.0], [1.0, -0.0], [0.0, -0.0], [0.0, -0.0], [0.0, -0.0], [0.0, '
        '-0.0], [1.0, -0.0], [0.0, -0.0], [0.0, -0.0], [0.0, -0.0], [0.0, '
        '-0.0], [1.0, -0.0]], "dims": [3, 2, 2]}}\n',
    ),
    "construct-matmul-too-small": (
        "construct matmul --m 1", 2,
        "",
        "",
    ),
    "construct-matmul": (
        "construct matmul --m 2", 0,
        '{"dims": [4, 4, 4], "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, '
        '0.0]]}\n',
        '{"command": "construct", "input": {"family": "matmul"}, '
        '"provenance": ["construction"], "result": {"amps": [[1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [1.0, 0.0]], "dims": [4, 4, 4]}}\n',
    ),
    "construct-case1": (
        "construct case1 --d 2 --which 1", 0,
        '{"dims": [2, 2, 2, 2], "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [1.0, 0.0]]}\n',
        '{"command": "construct", "input": {"family": "case1"}, '
        '"provenance": ["construction"], "result": {"amps": [[1.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "dims": [2, '
        '2, 2, 2]}}\n',
    ),
    "construct-augment": (
        "construct augment --state product.json", 0,
        '{"dims": [2, 2, 2], "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}\n',
        '{"command": "construct", "input": {"family": "augment"}, '
        '"provenance": ["construction"], "result": {"amps": [[1.0, '
        '0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [1.0, 0.0]], "dims": [2, 2, 2]}}\n',
    ),
    "local-ranks": (
        "local-ranks phi2.json", 0,
        '{"local_ranks": [3, 2, 2], "bipartition_ranks": {"0": 3, '
        '"0,1": 2, "0,2": 2}}\n',
        '{"command": "local-ranks", "input": {"state": "phi2.json"}, '
        '"provenance": ["local-ranks"], "result": {"bipartition_ranks": '
        '{"0": 3, "0,1": 2, "0,2": 2}, "local_ranks": [3, 2, 2]}}\n',
    ),
    "schmidt": (
        "schmidt bell.json --subset 1", 0,
        'rank = 2, singular values = [1.0, 1.0]\n',
        '{"command": "schmidt", "input": {"state": "bell.json", '
        '"subset": [1]}, "provenance": ["schmidt-rank"], "result": '
        '{"rank": 2, "singular_values": [1.0, 1.0]}}\n',
    ),
    "schmidt-two-parties": (
        "schmidt ghz.json --subset 1,2", 0,
        'rank = 2, singular values = [1.0, 1.0]\n',
        '{"command": "schmidt", "input": {"state": "ghz.json", '
        '"subset": [1, 2]}, "provenance": ["schmidt-rank"], "result": '
        '{"rank": 2, "singular_values": [1.0, 1.0]}}\n',
    ),
    "schmidt-bad-subset": (
        "schmidt bell.json --subset a", 2,
        "",
        "",
    ),
    "rank-bounds-interval": (
        "rank-bounds --dims 5,3,3", 0,
        'rank((5, 3, 3)) in [6, 9]\n',
        '{"command": "rank-bounds", "input": {"dims": [5, 3, 3]}, '
        '"provenance": ["flattening", "Thm2(i)"], "result": {"exact": '
        'false, "lower": 6, "provenance": ["flattening", "Thm2(i)"], '
        '"upper": 9}}\n',
    ),
    "rank-bounds-exact": (
        "rank-bounds --dims 3,2,2", 0,
        'rank((3, 2, 2)) = 3\n',
        '{"command": "rank-bounds", "input": {"dims": [3, 2, 2]}, '
        '"provenance": ["flattening", "Thm2(i)", "Thm2(ii)"], '
        '"result": {"exact": true, "lower": 3, "provenance": '
        '["flattening", "Thm2(i)", "Thm2(ii)"], "upper": 3}}\n',
    ),
    "rank-bounds-bad-dims": (
        "rank-bounds --dims x", 2,
        "",
        "",
    ),
    "rank-lb": (
        "rank-lb phi2.json", 0,
        '3\n',
        '{"command": "rank-lb", "input": {"state": "phi2.json"}, '
        '"provenance": ["flattening"], "result": 3}\n',
    ),
    "verify-decomp": (
        "verify-decomp mm.json strassen.json", 0,
        'certificate verified: tensor rank <= 7\n',
        '{"command": "verify-decomp", "input": {"decomposition": '
        '"strassen.json", "state": "mm.json"}, "provenance": '
        '["certificate"], "result": {"terms": 7, "verified": true}}\n',
    ),
    "verify-decomp-rejected": (
        "verify-decomp mm.json strassen6.json", 0,
        'certificate rejected\n',
        '{"command": "verify-decomp", "input": {"decomposition": '
        '"strassen6.json", "state": "mm.json"}, "provenance": '
        '["certificate"], "result": {"terms": 6, "verified": false}}\n',
    ),
    "apply": (
        "apply bell.json ops.json", 0,
        '{"dims": [2, 2], "amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0]]}\n',
        '{"command": "apply", "input": {"ops": "ops.json", "state": '
        '"bell.json"}, "provenance": ["local-operators"], "result": '
        '{"amps": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "dims": '
        '[2, 2]}}\n',
    ),
    "apply-three-parties": (
        "apply phi2.json ops3.json", 0,
        '{"dims": [2, 2, 2], "amps": [[-1.3203125, 0.0], [1.90625, 0.0], '
        '[1.1875, 0.921875], [-1.9375, -2.0], [1.40625, 0.203125], '
        '[-0.53125, 2.203125], [-1.125, -0.28125], [0.84375, -0.3125]]}\n',
        '{"command": "apply", "input": {"ops": "ops3.json", "state": '
        '"phi2.json"}, "provenance": ["local-operators"], "result": '
        '{"amps": [[-1.3203125, 0.0], [1.90625, 0.0], [1.1875, 0.921875], '
        '[-1.9375, -2.0], [1.40625, 0.203125], [-0.53125, 2.203125], '
        '[-1.125, -0.28125], [0.84375, -0.3125]], "dims": [2, 2, 2]}}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
@pytest.mark.parametrize("mode", ["human", "json", "json-after"])
def test_golden_output(capsys, files, case, mode):
    # --json goes before the command or after it, with the same report
    argv, code, human, report = GOLDEN[case]
    argv = argv.split()
    if mode == "json":
        argv = ["--json"] + argv
    elif mode == "json-after":
        argv = argv + ["--json"]
    assert run(capsys, argv) == (code, human if mode == "human" else report)

"""Self-test of the answer checks: corrupt correct answers on purpose.

For every expected answer the workloads use, one correct answer is built
from the closed forms and then corrupted one leaf at a time; each corrupted
answer must be judged wrong and counted as a failed op. CLI answers go
through the workload's own judge as complete JSON reports, including exit
codes 2 (failed) and 3 (undecidable).
"""

import json

import numpy as np

from checks import OK, UNDECIDABLE, WRONG, check, self_test
from workloads import CLI_COMMANDS, BulkLarge, CliMixed, SloccSweep


def _jsonable(tree):
    if isinstance(tree, dict):
        return {k: _jsonable(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_jsonable(v) for v in tree]
    if isinstance(tree, np.ndarray):
        if np.iscomplexobj(tree):
            return np.column_stack([tree.real.ravel(), tree.imag.ravel()]).tolist()
        return tree.tolist()
    return tree


def _by_check(spec):
    return lambda answer: OK if check(spec, answer) else WRONG


def _by_cli_judge(inp):
    def judge(result):
        report = json.dumps({"command": inp.argv[0], "result": _jsonable(result)})
        return CliMixed.judge(inp, (0, report.encode(), b""))[0]
    return judge


def run(seed, workdir):
    """Problems found (empty when every corruption was counted) and corruptions tried."""
    cases = []
    cli = CliMixed(seed, workdir)
    try:
        for cmd in CLI_COMMANDS:
            for v, inp in enumerate(cli.inputs[cmd]):
                cases.append((f"cli {cmd}[{v}]", inp.spec, _by_cli_judge(inp)))
        inp = cli.inputs["equiv"][0]
        exit_codes = [CliMixed.judge(inp, (code, b"", b""))[0] for code in (1, 2, 3)]
    finally:
        cli.close()
    bulk = BulkLarge(seed, workdir).make(np.random.default_rng(seed), (4, 4, 4))["spec"]
    cases.append(("bulk-large", bulk, _by_check(bulk)))
    sweep = SloccSweep(seed, workdir)
    for k, (_, _, spec) in enumerate(sweep.hyper):
        cases.append((f"slocc hyperplane[{k}]", spec, _by_check(spec)))
    cases.append(("slocc fixed questions", sweep.fixed_spec, _by_check(sweep.fixed_spec)))
    for k, (_, spec) in enumerate(sweep.probes):
        cases.append((f"slocc probe[{k}]", spec, _by_check(spec)))
    problems, tried = self_test(cases)
    if exit_codes != [WRONG, WRONG, UNDECIDABLE]:
        problems.append(f"cli exit codes 1, 2, 3 judged {exit_codes}")
    return problems, tried + len(exit_codes)

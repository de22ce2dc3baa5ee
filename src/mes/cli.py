"""Command-line front end.

Exit codes: 0 decided, 1 I/O, parse or allocation failure, 2 precondition
violation, 3 undecidable. With --json every command emits one JSON object
{"command", "input", "result", "provenance"}; `construct` and `apply`
without --json print the bare state JSON so their output feeds every
consuming command.

Every command is one COMMANDS entry, and `main` builds the parser of that one
command only. Handlers call library functions through their module at call
time, so wrappers installed on a module see every call.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import construct, core, io, rank, slocc, spaces
from .errors import PreconditionError, UndecidableError


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad integer list {text!r}; expected e.g. 3,2,2")


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


def _labelled(label: str, result, tag: str) -> tuple:
    return result, [tag], f"{label} = {result}"


def _complement(args) -> tuple:
    cc = slocc.complement_map(io.load_state(args.state), args.pivot)
    doc = io.state_to_dict(cc.complement_state)
    result = {"complement": doc, "pivot": cc.pivot, "k": cc.k, "label": cc.label}
    return result, ["complement-map"], f"k = {cc.k}, label = {cc.label}\n{json.dumps(doc)}"


def _equiv(args) -> tuple:
    a, b = io.load_state(args.a), io.load_state(args.b)
    tag = "bipartite-schmidt-rank" if a.n == 2 else "hyperplane-classification"
    return _labelled("equivalent", slocc.equivalent(a, b), tag)


def _witness(args) -> tuple:
    witness = slocc.incomparability_witness(io.load_state(args.a), io.load_state(args.b))
    if witness is None:
        return None, ["rank-monotonicity"], "no witness found"
    return ([list(witness[0]), list(witness[1])], ["rank-monotonicity"],
            f"witness cuts: {witness[0]} {witness[1]}")


def _catalog(args) -> tuple:
    dims, finite, max_count, total_count, source = spaces.finite_class_catalog(args.dims)
    result = {"dims": dims, "finite": "yes" if finite else "unknown",
              "max_class_count": max_count, "total_class_count": total_count, "source": source}
    human = (f"{dims}: finite = {result['finite']}"
             + (f", maximal classes = {max_count}" if max_count else "")
             + (f", total classes = {total_count}" if total_count else ""))
    return result, ["finite-class-catalog"], human


# family -> (options it requires, builder)
FAMILIES = {
    "epr": (["d"], lambda a: construct.epr(a.d)),
    "mes": (["dims"], lambda a: construct.mes_state(a.dims)),
    "maximal-rank-d1": (["dims"], lambda a: construct.maximal_rank_d1(a.dims)),
    "canonical": (["dims", "r"], lambda a: construct.canonical_maximal(a.dims, a.r)),
    "matmul": (["m"], lambda a: construct.matmul_tensor(a.m)),
    "case1": (["d"], lambda a: construct.case1_pair(a.d)[a.which]),
    "augment": (["state"], lambda a: construct.augment_to_full_ranks(io.load_state(a.state))),
}


def _construct(args) -> tuple:
    needs, build = FAMILIES[args.family]
    for attr in needs:
        if getattr(args, attr) is None:
            raise PreconditionError(f"construct {args.family} requires --{attr}")
    state = build(args)
    doc = io.state_to_dict(state)
    if args.out:
        io.save_state(state, args.out)
    return doc, ["construction"], None


def _local_ranks(args) -> tuple:
    prof = core.local_ranks(io.load_state(args.state))
    return {
        "local_ranks": list(prof.local_ranks),
        "bipartition_ranks": {
            ",".join(map(str, subset)): r for subset, r in prof.bipartition_ranks.items()
        },
    }, ["local-ranks"], None


def _schmidt(args) -> tuple:
    import numpy as np  # the one handler that needs numpy itself

    r, svals = core.schmidt_rank(io.load_state(args.state), args.subset)
    with np.errstate(over="ignore"):  # values too large to scale have no decimals
        shown = np.round(svals, 12)
    shown = np.where(np.isfinite(shown), shown, svals)
    return ({"rank": r, "singular_values": [float(s) for s in svals]}, ["schmidt-rank"],
            f"rank = {r}, singular values = {shown.tolist()}")


def _rank_bounds(args) -> tuple:
    lower, upper, exact, provenance = spaces.space_rank_bounds(args.dims)
    human = (f"rank({args.dims}) = {lower}" if exact
             else f"rank({args.dims}) in [{lower}, {upper}]")
    return ({"lower": lower, "upper": upper, "exact": exact, "provenance": provenance},
            list(provenance), human)


def _verify_decomp(args) -> tuple:
    state = io.load_state(args.state)
    decomp = io.load_decomposition(args.decomposition)
    ok = rank.verify_decomposition(state, decomp)
    human = (f"certificate verified: tensor rank <= {len(decomp)}" if ok
             else "certificate rejected")
    return {"verified": ok, "terms": len(decomp)}, ["certificate"], human


Command = namedtuple("Command", [
    "help",
    "args",
    "inputs",  # attributes of the parsed arguments reported under "input"
    # parsed arguments -> (result, provenance, human text); human text None
    # means the result itself as JSON, so construct and apply print bare states
    # and classify and rank-lb bare integers
    "run",
])


STATE = _arg("state")
DIMS = _arg("--dims", type=_int_list, required=True)

COMMANDS = {
    "check-mes": Command(
        "does the space admit a maximum entangled state", [DIMS], ("dims",),
        lambda a: _labelled(f"mes_exists{a.dims}", spaces.mes_exists(a.dims),
                            "existence-condition")),
    "maximal": Command(
        "full-local-ranks maximality test", [STATE], ("state",),
        lambda a: _labelled("maximal", slocc.is_maximal(io.load_state(a.state)),
                            "full-local-ranks")),
    "complement": Command(
        "complement-class representative",
        [STATE, _arg("--pivot", type=int, default=0)], ("state", "pivot"), _complement),
    "classify": Command(
        "hyperplane class label", [STATE], ("state",),
        lambda a: (slocc.classify_hyperplane(io.load_state(a.state)),
                   ["hyperplane-classification"], None)),
    "equiv": Command(
        "SLOCC equivalence where decidable", [_arg("a"), _arg("b")], ("a", "b"), _equiv),
    "witness": Command(
        "incomparability witness search", [_arg("a"), _arg("b")], ("a", "b"), _witness),
    "reach": Command(
        "operator tuple from the MES to a target", [_arg("target"), DIMS],
        ("dims", "target"),
        lambda a: (io.ops_to_dict(slocc.reach_from_mes(a.dims, io.load_state(a.target))),
                   ["mes-sufficiency"], None)),
    "catalog": Command("finite-class catalog lookup", [DIMS], ("dims",), _catalog),
    "construct": Command(
        "build a named state family",
        [
            _arg("family", choices=list(FAMILIES)),
            _arg("--d", type=int, help="dimension for epr/case1"),
            _arg("--dims", type=_int_list, help="profile for mes/maximal-rank-d1/canonical"),
            _arg("--r", type=int, help="class index for canonical"),
            _arg("--m", type=int, help="matrix size for matmul"),
            _arg("--which", type=int, default=0, choices=[0, 1], help="case1 member"),
            _arg("--state", help="input state for augment"),
            _arg("-o", "--out", help="also write the state JSON to this path"),
        ],
        ("family",), _construct),
    "local-ranks": Command(
        "single-party and bipartition ranks", [STATE], ("state",), _local_ranks),
    "schmidt": Command(
        "Schmidt rank across a bipartition",
        [STATE, _arg("--subset", type=_int_list, required=True)], ("state", "subset"),
        _schmidt),
    "rank-bounds": Command("space rank bound formulas", [DIMS], ("dims",), _rank_bounds),
    "rank-lb": Command(
        "flattening lower bound of a state", [STATE], ("state",),
        lambda a: (rank.flattening_lower_bound(io.load_state(a.state)), ["flattening"], None)),
    "verify-decomp": Command(
        "check a product-decomposition certificate",
        [STATE, _arg("decomposition", metavar="decomp")], ("state", "decomposition"),
        _verify_decomp),
    "apply": Command(
        "apply a local operator tuple", [STATE, _arg("ops")], ("state", "ops"),
        lambda a: (io.state_to_dict(core.apply_local(
            io.load_state(a.state), io.load_ops(a.ops))), ["local-operators"], None)),
}


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """mes's own parser, `[--json] command ...`, or with a name the parser of
    that command: its COMMANDS entry's arguments and --json."""
    if name is None:
        parser = argparse.ArgumentParser(
            prog="mes",
            description="Multipartite entanglement analysis under stochastic LOCC.",
            epilog="commands:\n" + "\n".join(
                f"  {key:<15}{entry.help}" for key, entry in COMMANDS.items()),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        parser.add_argument("command", choices=COMMANDS, metavar="command",
                            help="one of the commands below")
        parser.add_argument("args", nargs=argparse.REMAINDER,
                            help="its arguments: see mes <command> --help")
    else:
        parser = argparse.ArgumentParser(prog=f"mes {name}", description=COMMANDS[name].help)
        for flags, kwargs in COMMANDS[name].args:
            parser.add_argument(*flags, **kwargs)
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def main(argv: list | None = None) -> int:
    top = build_parser().parse_args(argv)
    args = build_parser(top.command).parse_args(top.args)
    command = COMMANDS[top.command]
    try:
        result, provenance, human = command.run(args)
        if top.json or args.json:
            print(json.dumps({
                "command": top.command,
                "input": {key: getattr(args, key) for key in command.inputs},
                "result": result,
                "provenance": provenance,
            }, sort_keys=True))
        else:
            print(json.dumps(result) if human is None else human)
        return 0
    except UndecidableError as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

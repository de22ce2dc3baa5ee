"""Command-line front end.

Exit codes: 0 decided, 1 I/O or parse failure, 2 precondition violation,
3 undecidable. With --json every command emits one JSON object
{"command", "input", "result", "provenance"}; `construct` without --json
prints the bare state JSON so its output feeds every consuming command.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import construct, core, io, rank, slocc
from .errors import PreconditionError, ProfileMismatch, UndecidableError


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; expected e.g. 3,2,2")
    return dims


def _parse_subset(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _report(args, result, provenance, human: str, extra_input=None) -> int:
    if args.json:
        payload = {
            "command": args.command,
            "input": extra_input or {},
            "result": result,
            "provenance": provenance,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)
    return 0


def _cmd_check_mes(args) -> int:
    result = slocc.mes_exists(args.dims)
    return _report(
        args, result, ["existence-condition"],
        f"mes_exists{tuple(args.dims)} = {result}",
        {"dims": list(args.dims)},
    )


def _cmd_maximal(args) -> int:
    state = io.load_state(args.state)
    result = slocc.is_maximal(state)
    return _report(
        args, result, ["full-local-ranks"],
        f"maximal = {result}", {"state": args.state},
    )


def _cmd_complement(args) -> int:
    state = io.load_state(args.state)
    cc = slocc.complement_map(state, args.pivot)
    result = {
        "complement": io.state_to_dict(cc.complement_state),
        "pivot": cc.pivot,
        "k": cc.k,
        "label": cc.label,
    }
    human = (
        f"k = {cc.k}, label = {cc.label}\n"
        + json.dumps(io.state_to_dict(cc.complement_state))
    )
    return _report(args, result, ["complement-map"], human,
                   {"state": args.state, "pivot": args.pivot})


def _cmd_classify(args) -> int:
    state = io.load_state(args.state)
    label = slocc.classify_hyperplane(state)
    return _report(args, label, ["hyperplane-classification"],
                   str(label), {"state": args.state})


def _cmd_equiv(args) -> int:
    a = io.load_state(args.a)
    b = io.load_state(args.b)
    if a.dims != b.dims:
        raise ProfileMismatch(f"dims differ: {a.dims} vs {b.dims}")
    if a.n == 2:
        result = slocc.equiv_bipartite(a, b)
        tag = "bipartite-schmidt-rank"
    else:
        try:
            result = slocc.classify_hyperplane(a) == slocc.classify_hyperplane(b)
            tag = "hyperplane-classification"
        except PreconditionError as exc:
            raise UndecidableError(
                f"equivalence undecidable outside bipartite and maximal "
                f"hyperplane cases ({exc})"
            )
    return _report(args, result, [tag], f"equivalent = {result}",
                   {"a": args.a, "b": args.b})


def _cmd_witness(args) -> int:
    a = io.load_state(args.a)
    b = io.load_state(args.b)
    witness = slocc.incomparability_witness(a, b)
    result = None if witness is None else [list(witness[0]), list(witness[1])]
    human = "no witness found" if witness is None else f"witness cuts: {witness[0]} {witness[1]}"
    return _report(args, result, ["rank-monotonicity"], human,
                   {"a": args.a, "b": args.b})


def _cmd_reach(args) -> int:
    target = io.load_state(args.target)
    tup = slocc.reach_from_mes(args.dims, target)
    result = io.ops_to_dict(tup)
    return _report(args, result, ["mes-sufficiency"], json.dumps(result),
                   {"dims": list(args.dims), "target": args.target})


def _cmd_catalog(args) -> int:
    entry = slocc.finite_class_catalog(args.dims)
    result = {
        "dims": list(entry.dims),
        "finite": "yes" if entry.finite else "unknown",
        "max_class_count": entry.max_class_count,
        "total_class_count": entry.total_class_count,
        "source": entry.source,
    }
    human = (
        f"{entry.dims}: finite = {result['finite']}"
        + (f", maximal classes = {entry.max_class_count}" if entry.max_class_count else "")
        + (f", total classes = {entry.total_class_count}" if entry.total_class_count else "")
    )
    return _report(args, result, ["finite-class-catalog"], human,
                   {"dims": list(args.dims)})


def _require(args, family: str, attr: str) -> None:
    if getattr(args, attr, None) is None:
        raise PreconditionError(f"construct {family} requires --{attr}")


def _cmd_construct(args) -> int:
    family = args.family
    needs = {
        "epr": ["d"], "mes": ["dims"], "maximal-rank-d1": ["dims"],
        "canonical": ["dims", "r"], "matmul": ["m"], "case1": ["d"],
        "augment": ["state"],
    }
    for attr in needs[family]:
        _require(args, family, attr)
    if family == "epr":
        state = construct.epr(args.d)
    elif family == "mes":
        state = construct.mes_state(args.dims)
    elif family == "maximal-rank-d1":
        state = construct.maximal_rank_d1(args.dims)
    elif family == "canonical":
        state = construct.canonical_maximal(args.dims, args.r)
    elif family == "matmul":
        state = construct.matmul_tensor(args.m)
    elif family == "case1":
        state = construct.case1_pair(args.d)[args.which]
    elif family == "augment":
        state = construct.augment_to_full_ranks(io.load_state(args.state), seed=args.seed)
    else:  # unreachable: argparse restricts choices
        raise PreconditionError(f"unknown family {family}")
    doc = io.state_to_dict(state)
    if args.out:
        io.save_state(state, args.out)
    if args.json:
        return _report(args, doc, ["construction"], "", {"family": family})
    print(json.dumps(doc))
    return 0


def _cmd_local_ranks(args) -> int:
    state = io.load_state(args.state)
    prof = core.local_ranks(state)
    result = {
        "local_ranks": list(prof.local_ranks),
        "bipartition_ranks": {
            ",".join(map(str, subset)): r for subset, r in prof.bipartition_ranks.items()
        },
    }
    return _report(args, result, ["local-ranks"], json.dumps(result),
                   {"state": args.state})


def _cmd_schmidt(args) -> int:
    state = io.load_state(args.state)
    r, svals = core.schmidt_rank(state, args.subset)
    result = {"rank": r, "singular_values": [float(s) for s in svals]}
    return _report(args, result, ["schmidt-rank"],
                   f"rank = {r}, singular values = {np.round(svals, 12).tolist()}",
                   {"state": args.state, "subset": list(args.subset)})


def _cmd_rank_bounds(args) -> int:
    bound = rank.space_rank_bounds(args.dims)
    result = {
        "lower": bound.lower, "upper": bound.upper,
        "exact": bound.exact, "provenance": list(bound.provenance),
    }
    human = (f"rank({tuple(args.dims)}) = {bound.lower}" if bound.exact
             else f"rank({tuple(args.dims)}) in [{bound.lower}, {bound.upper}]")
    return _report(args, result, list(bound.provenance), human,
                   {"dims": list(args.dims)})


def _cmd_rank_lb(args) -> int:
    state = io.load_state(args.state)
    lb = rank.flattening_lower_bound(state)
    return _report(args, lb, ["flattening"], str(lb), {"state": args.state})


def _cmd_verify_decomp(args) -> int:
    state = io.load_state(args.state)
    decomp = io.load_decomposition(args.decomp)
    ok = rank.verify_decomposition(state, decomp)
    result = {"verified": ok, "terms": len(decomp)}
    human = (f"certificate verified: tensor rank <= {len(decomp)}" if ok
             else "certificate rejected")
    return _report(args, result, ["certificate"], human,
                   {"state": args.state, "decomposition": args.decomp})


def _cmd_apply(args) -> int:
    state = io.load_state(args.state)
    tup = io.load_ops(args.ops)
    out = core.apply_local(state, tup)
    doc = io.state_to_dict(out)
    if args.json:
        return _report(args, doc, ["local-operators"], "",
                       {"state": args.state, "ops": args.ops})
    print(json.dumps(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mes",
        description="Multipartite entanglement analysis under stochastic LOCC.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    # Accept the global flags after the subcommand too.  SUPPRESS keeps the
    # subparser from clobbering a value given before the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable report")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized steps")

    class _Sub(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            kwargs.setdefault("parents", []).append(common)
            super().__init__(**kwargs)

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Sub)

    p = sub.add_parser("check-mes", help="does the space admit a maximum entangled state")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.set_defaults(func=_cmd_check_mes)

    p = sub.add_parser("maximal", help="full-local-ranks maximality test")
    p.add_argument("state")
    p.set_defaults(func=_cmd_maximal)

    p = sub.add_parser("complement", help="complement-class representative")
    p.add_argument("state")
    p.add_argument("--pivot", type=int, default=0)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("classify", help="hyperplane class label")
    p.add_argument("state")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equiv", help="SLOCC equivalence where decidable")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("witness", help="incomparability witness search")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("reach", help="operator tuple from the MES to a target")
    p.add_argument("target")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("catalog", help="finite-class catalog lookup")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("construct", help="build a named state family")
    p.add_argument("family", choices=[
        "epr", "mes", "maximal-rank-d1", "canonical", "matmul", "case1", "augment",
    ])
    p.add_argument("--d", type=int, help="dimension for epr/case1")
    p.add_argument("--dims", type=_parse_dims, help="profile for mes/maximal-rank-d1/canonical")
    p.add_argument("--r", type=int, help="class index for canonical")
    p.add_argument("--m", type=int, help="matrix size for matmul")
    p.add_argument("--which", type=int, default=0, choices=[0, 1], help="case1 member")
    p.add_argument("--state", help="input state for augment")
    p.add_argument("-o", "--out", help="also write the state JSON to this path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("local-ranks", help="single-party and bipartition ranks")
    p.add_argument("state")
    p.set_defaults(func=_cmd_local_ranks)

    p = sub.add_parser("schmidt", help="Schmidt rank across a bipartition")
    p.add_argument("state")
    p.add_argument("--subset", type=_parse_subset, required=True)
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("rank-bounds", help="space rank bound formulas")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.set_defaults(func=_cmd_rank_bounds)

    p = sub.add_parser("rank-lb", help="flattening lower bound of a state")
    p.add_argument("state")
    p.set_defaults(func=_cmd_rank_lb)

    p = sub.add_parser("verify-decomp", help="check a product-decomposition certificate")
    p.add_argument("state")
    p.add_argument("decomp")
    p.set_defaults(func=_cmd_verify_decomp)

    p = sub.add_parser("apply", help="apply a local operator tuple")
    p.add_argument("state")
    p.add_argument("ops")
    p.set_defaults(func=_cmd_apply)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UndecidableError as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

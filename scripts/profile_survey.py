#!/usr/bin/env python3
"""Survey small profiles: MES existence, rank bounds, and catalog verdicts.

Usage: python3 scripts/profile_survey.py [--max-dim 6]
"""

import argparse
import itertools

from mes import spaces


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=6)
    args = parser.parse_args()

    header = f"{'dims':>12}  {'MES':>5}  {'rank':>10}  {'maximal classes':>16}"
    print(header)
    print("-" * len(header))
    for dims in itertools.product(range(2, args.max_dim + 1), repeat=3):
        if not dims[0] >= dims[1] >= dims[2]:
            continue
        exists = spaces.mes_exists(dims)
        bound = spaces.space_rank_bounds(dims)
        rank_str = (
            str(bound.lower) if bound.exact else f"[{bound.lower},{bound.upper}]"
        )
        entry = spaces.finite_class_catalog(dims)
        if entry.max_class_count is not None:
            classes = str(entry.max_class_count)
        elif entry.finite:
            classes = "finite"
        else:
            classes = "?"
        print(f"{str(dims):>12}  {str(exists):>5}  {rank_str:>10}  {classes:>16}")


if __name__ == "__main__":
    main()

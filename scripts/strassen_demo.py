#!/usr/bin/env python3
"""Certify the 2x2 matrix-multiplication tensor: rank in [4, 7].

Builds the 4 x 4 x 4 multiplication tensor, checks the flattening lower
bound, and verifies Strassen's 7-term decomposition as an upper-bound
certificate (then shows that deleting any term breaks it).
"""

from mes import construct, rank


def main():
    state = construct.matmul_tensor(2)
    lb = rank.flattening_lower_bound(state)
    decomp = rank.strassen_decomposition()
    bound = rank.certificate_bound(state, decomp)
    print(f"flattening lower bound: {lb}")
    print(f"7-term certificate verified: {bound is not None}")
    print(f"tensor rank interval: [{bound.lower}, {bound.upper}]")
    for drop in range(len(decomp)):
        reduced = decomp[:drop] + decomp[drop + 1:]
        assert not rank.verify_decomposition(state, reduced)
    print("every 6-term truncation rejected")


if __name__ == "__main__":
    main()

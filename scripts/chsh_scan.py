#!/usr/bin/env python3
"""CHSH scan over the zoo at the reference-optimal angle grid.

Prints S for every zoo model (exact), the local deterministic bound, the
singlet cosine reference, and each model's gap to the reference.
"""
import argparse

from eprsim import (
    CHSH_OPTIMAL_ANGLES,
    LOCAL_BOUND,
    chsh,
    chsh_from_correlations,
    reference_correlation,
    s1,
    s2,
)
from eprsim.util import fmt12
from eprsim.zoo import ZOO

SETTINGS = (
    s1(CHSH_OPTIMAL_ANGLES[0]),
    s1(CHSH_OPTIMAL_ANGLES[1]),
    s2(CHSH_OPTIMAL_ANGLES[2]),
    s2(CHSH_OPTIMAL_ANGLES[3]),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--method", choices=("exact", "monte_carlo"), default="exact")
    parser.add_argument("--trials", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    reference = chsh_from_correlations(reference_correlation, *SETTINGS)
    print(f"local deterministic bound: {fmt12(LOCAL_BOUND)}")
    print(f"singlet cosine reference:  S = {fmt12(reference.s_value)}")
    print()
    print(f"{'model':28s} {'S':>16s} {'|S|':>14s} {'gap to ref':>12s}")
    for name, entry in ZOO.items():
        result = chsh(
            entry.build(), *SETTINGS, method=args.method,
            trials=args.trials if args.method == "monte_carlo" else 0, seed=args.seed,
        )
        gap = abs(reference.s_value) - abs(result.s_value)
        print(
            f"{name:28s} {fmt12(result.s_value):>16s} {fmt12(abs(result.s_value)):>14s} "
            f"{fmt12(gap):>12s}"
        )


if __name__ == "__main__":
    main()

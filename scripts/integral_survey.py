#!/usr/bin/env python3
"""Survey normalized-integral feasibility across the built-in structures.

For each structure: does the trivial datum admit a normalized integral, how
large is the space of dual integral functionals, and does the dual-derived
candidate normalize?  Everything is exact; reruns print identical tables.
"""

import argparse
import os
import sys

# run from a checkout, installed or not: the package is imported from its src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from homhopf.applications import (dual_right_integrals, integral_from_dual,  # noqa: E402
                                  trivial_datum)
from homhopf.integrals import Infeasible, solve_normalized_integral  # noqa: E402
from homhopf.io import parse_field_flag  # noqa: E402
from homhopf.zoo import (group_algebra, sweedler_h4, twisted_group_algebra,  # noqa: E402
                         twisted_sweedler)


def structures(field):
    yield "kZ2", group_algebra(2, field)
    yield "kZ3", group_algebra(3, field)
    yield "kZ4", group_algebra(4, field)
    yield "kZ5", group_algebra(5, field)
    yield "kZ6", group_algebra(6, field)
    yield "kZ4 (g -> g^3)", twisted_group_algebra(4, 3, field)
    yield "kZ6 (g -> g^5)", twisted_group_algebra(6, 5, field)
    yield "H4", sweedler_h4(field)
    yield "H4 (x -> 2x)", twisted_sweedler(field, 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", default="Q", help="Q (default) or GF:<p>")
    args = parser.parse_args()
    field = parse_field_flag(args.field)

    header = f"{'structure':<16} {'integral':<12} {'dual dim':<9} dual normalizes"
    print(header)
    print("-" * len(header))
    for name, h in structures(field):
        datum = trivial_datum(h)
        sol = solve_normalized_integral(datum)
        feasible = not isinstance(sol, Infeasible)
        duals = dual_right_integrals(h)
        if duals:
            cand = integral_from_dual(duals[0], h, datum)
            normal = "yes" if cand.report.passed else \
                "no (" + ", ".join(cand.report.failing_axioms()) + ")"
        else:
            normal = "-"
        print(f"{name:<16} {'exists' if feasible else 'infeasible':<12} "
              f"{len(duals):<9} {normal}")
        if not feasible:
            print(f"{'':<16} witness: {sol.message()}")


if __name__ == "__main__":
    main()

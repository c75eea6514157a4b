#!/usr/bin/env python3
"""Classify the worked example models and show the supporting evidence.

Covers the exact Potts route, the degenerate trace case, the exact
coprime-base valuation route (commensurable and incommensurable stochastic
matrices), and the floating continued-fraction route (golden-mean matrix).
"""

import math
from fractions import Fraction

from treegibbs import classify, difference_set, markov_model, potts_model, potts_theta

GOLDEN = (math.sqrt(5) - 1) / 2

EXAMPLES = [
    ("Potts q=3, J=1, beta=1", potts_model(3, 1, 1, 2)),
    ("Potts q=2, J=1, beta=1 (Ising)", potts_model(2, 1, 1, 2)),
    ("uniform stochastic matrix", markov_model([[Fraction(1, 2)] * 2] * 2, 2)),
    ("P = [[1/4,3/4],[3/4,1/4]]",
     markov_model([[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]], 2)),
    ("P = [[1/2,1/2],[1/3,2/3]]",
     markov_model([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]], 2)),
    ("golden-mean matrix [[a,a^2],[a^2,a]]",
     markov_model([[GOLDEN, GOLDEN**2], [GOLDEN**2, GOLDEN]], 2)),
]


def main():
    for name, model in EXAMPLES:
        result = classify(model)
        deltas = difference_set(model)
        print(f"{name}")
        print(f"  verdict    : {result.verdict} ({result.confidence})")
        if result.generator is not None:
            print(f"  generator  : {result.generator}   gamma = {result.gamma:.12f}")
        print(f"  deltas     : {len(deltas)} distinct coupling differences ({result.evidence['kind']})")
        print(f"  caveat     : {result.caveat}")
        print()
    print(f"Potts theta(q=3, J=1, beta=1) = {potts_theta(3, 1, 1):.12f} (= e^-1)")


if __name__ == "__main__":
    main()

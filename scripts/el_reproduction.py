#!/usr/bin/env python3
"""Reproduce the reference Euler-Lagrange equation across parameter settings.

For a one-coordinate Lagrangian with power potential and fractional-power
fibre terms, the order-alpha Euler-Lagrange residual has a closed form. This
script sweeps (alpha, potential power, coefficient vectors), evaluates the
residual minus the closed form on random jets, and prints the worst deviation
for the fractional and classical constructions, plus the measured gap of the
alpha-fibre-exponent variant (whose fibre terms drop out of the residual).
"""

import numpy as np

from fracosc.expr import evaluate
from fracosc.lagrange import (
    el_residual,
    reference_problem_classical,
    reference_problem_fractional,
    reference_residual,
)

SETTINGS = [
    (0.3, 2.0, 1.0, (1.0, 1.0, 1.0)),
    (0.3, 2.0, 1.0, (1.1, 0.7, 0.9)),
    (0.45, 1.6, 2.5, (0.7, 1.3)),
    (0.25, 3.0, 0.5, (2.0,)),
]


def _max_residual(problem, rng, samples=60):
    names = ["x1"] + [f"y1_{a}" for a in range(1, problem.spec.k + 2)]
    jets = rng.uniform(0.5, 2.0, size=(samples, len(names)))  # row-major: sample by sample
    return max([0.0, *reference_residual(problem, dict(zip(names, jets.T))).tolist()])


def main():
    rng = np.random.default_rng(11)
    for alpha, power, c, coeffs in SETTINGS:
        frac = _max_residual(reference_problem_fractional(alpha, power, c, coeffs), rng)
        clas = _max_residual(reference_problem_classical(alpha, power, c, coeffs), rng)
        print(
            f"alpha={alpha:<5} power={power:<4} c={c:<4} coeffs={coeffs}: "
            f"fractional {frac:.3e}   classical {clas:.3e}"
        )

    # the alpha-fibre-exponent variant misses the target by exactly the fibre part
    lit = reference_problem_fractional(fibre_exponent_alpha=True)
    env = {"x1": 1.2, "y1_1": 0.9, "y1_2": 1.1, "y1_3": 0.7, "y1_4": 0.9}
    E = el_residual(lit.spec, lit.lagrangian, lit.mode)[0]
    gap = abs(evaluate(E, env) - evaluate(lit.target, env))
    print(f"alpha-fibre-exponent variant gap at a sample jet: {gap:.6f} (nonzero by design)")


if __name__ == "__main__":
    main()

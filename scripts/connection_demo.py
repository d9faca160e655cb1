#!/usr/bin/env python3
"""Walk through the connection pipeline on a small worked example.

Starting from a spray on a rank-1, order-2 bundle: dual coefficients by the
recursion, primal coefficients by inversion, adapted frame/coframe pairing,
metrical coefficients and metricity for a jet metric, and the measured
disagreement between the two fibre-covector readings of a quadratic
Lagrangian (a structural gap this package reports rather than hides).
"""

import numpy as np

from fracosc.bundle import (
    BundleSpec,
    dual_to_primal,
    pairing_residual,
    spray_to_dual,
)
from fracosc.connection import MetricField, MetricalConnection
from fracosc.expr import parse, to_str
from fracosc.lagrange import covector_gap, fundamental_tensor

SPEC = BundleSpec(1, 2, 0.5)


def main():
    G = (parse("x1 * y1_1^2"),)
    dual = spray_to_dual(SPEC, G)
    primal = dual_to_primal(dual)
    for b in range(1, SPEC.k + 1):
        print(f"dual order {b}:   {to_str(dual.order(b)[0][0])}")
    for b in range(1, SPEC.k + 1):
        print(f"primal order {b}: {to_str(primal.order(b)[0][0])}")

    rng = np.random.default_rng(3)
    env = {name: rng.uniform(0.6, 1.4) for name in SPEC.all_names()}
    print(f"pairing residual at a random jet: {pairing_residual(SPEC, primal, dual, env):.3e}")

    metric = MetricField.from_matrix(SPEC, ((parse("1 + x1^2"),),))
    conn = MetricalConnection(SPEC, metric, primal)
    print(f"metricity residual:               {conn.metricity_residual(env):.3e}")

    spec1 = BundleSpec(1, 1, 0.5)
    L = parse("1.5 * y1_1^2")
    g = fundamental_tensor(spec1, L, semantics="classical")
    env_gap = {name: rng.uniform(0.6, 1.4) for name in spec1.all_names()}
    env_gap["y1_2"] = rng.uniform(0.6, 1.4)
    gap = covector_gap(spec1, L, g, env_gap)
    print(f"covector-reading gap (quadratic): {gap:.6f} (nonzero: ladder vs closed form)")


if __name__ == "__main__":
    main()

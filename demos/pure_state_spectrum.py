"""Partially transposed pure states: the product-of-two-semicircles law.

For a uniform pure state on C^d (x) C^d, the spectrum of its partial
transpose is known in closed form from the Schmidt coefficients: the
coefficients themselves plus +-sqrt(li*lj) for every pair.  Rescaled by d,
the eigenvalue distribution approaches the law of a product of two
independent standard semicircular variables, whose even moments are squared
Catalan numbers (1, 4, 25, ...).  The demo checks the closed form against a
direct eigendecomposition and tracks the moment convergence in d.  Each row
of the moment table is one `run_pure_state`, the runner behind
`ptwishart pure`.

Usage: python3 demos/pure_state_spectrum.py
"""

import numpy as np

from ptwishart import (
    BipartiteShape,
    ProductSemicircle,
    SampleStream,
    hermitian_eigenvalues,
    partial_transpose,
    pt_spectrum_from_schmidt,
    sample_pure_state,
    schmidt_coefficients,
)
from ptwishart.experiments import ExperimentConfig, run_pure_state


def main():
    trials = 10
    law = ProductSemicircle()

    print("closed-form spectrum vs direct eigendecomposition (d = 5):")
    shape = BipartiteShape(5, 5)
    psi = sample_pure_state(shape, SampleStream(4, 0))
    lam = schmidt_coefficients(psi, shape)
    formula = 5 * pt_spectrum_from_schmidt(lam)
    direct = 5 * hermitian_eigenvalues(partial_transpose(np.outer(psi, psi.conj()), shape))
    print(f"  max |difference| = {np.max(np.abs(formula - direct)):.2e}")

    print(f"\nmoments of the rescaled spectrum vs squared Catalan numbers, {trials} trials per d:")
    print(f"{'d':>4} {'m2':>8} {'m4':>8} {'m6':>8}   (theory: {law.moment(2):g}, {law.moment(4):g}, {law.moment(6):g})")
    for d in (10, 25, 50, 100):
        config = ExperimentConfig(subcommand="pure", d1=d, d2=d, trials=trials, ensemble="pure", master_seed=5)
        stats = run_pure_state(config)["aggregates"]["statistics"]
        print(f"{d:>4} " + " ".join(f"{stats[f'moment_k{k}']['mean']:>8.3f}" for k in (2, 4, 6)))


if __name__ == "__main__":
    main()

"""Extreme eigenvalues converge to the semicircle edges 1 +- 2/sqrt(alpha).

Tracks the smallest and largest eigenvalue of blockwise-transposed Wishart
samples as the block dimension d grows, for a few aspect ratios.  At alpha=4
the lower edge sits exactly at zero, the hinge of the PPT threshold.  Each
row is one `run_extremes`, the runner behind `ptwishart extremes`.

Usage: python3 demos/extreme_eigenvalues.py [trials]
"""

import sys

from ptwishart.experiments import ExperimentConfig, run_extremes


def main():
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print(f"{'alpha':>6} {'d':>4} {'lambda_min':>11} {'edge_low':>9} {'lambda_max':>11} {'edge_high':>10}")
    for alpha in (1.0, 4.0, 9.0):
        for d in (10, 20, 30):
            config = ExperimentConfig(subcommand="extremes", d1=d, d2=d, trials=trials, alpha=alpha,
                                      master_seed=2)
            report = run_extremes(config)
            stats, theory = report["aggregates"]["statistics"], report["theory"]
            print(
                f"{alpha:>6.1f} {d:>4} {stats['lambda_min']['mean']:>11.4f} {theory['edge_low']:>9.4f}"
                f" {stats['lambda_max']['mean']:>11.4f} {theory['edge_high']:>10.4f}"
            )
        print()


if __name__ == "__main__":
    main()

"""The PPT phase transition of random induced states at ancilla ratio 4.

A random state on C^d (x) C^d induced by a p-dimensional environment is
essentially never PPT for p < 4 d^2 and essentially always PPT for
p > 4 d^2.  This sweep estimates the PPT frequency across alpha = p/d^2 for
growing d and prints the sharpening of the transition; the mixture-of-pure-
states ensemble shows the same behavior.  Each row is one `run_ppt_sweep`,
the runner behind `ptwishart ppt`.

Usage: python3 demos/ppt_threshold.py [trials]
"""

import sys

from ptwishart.experiments import ExperimentConfig, run_ppt_sweep

ALPHAS = (2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 8.0)


def frequencies(ensemble, d, trials):
    config = ExperimentConfig(subcommand="ppt", d1=d, d2=d, trials=trials, ensemble=ensemble,
                              alphas=ALPHAS, master_seed=3)
    return [entry["ppt_frequency"] for entry in run_ppt_sweep(config)["aggregates"]["per_alpha"]]


def main():
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    header = "  ".join(f"{'a=' + format(a, 'g'):>5}" for a in ALPHAS)
    print(f"induced states, {trials} trials per point")
    print(f"{'d':>3}  {header}")
    for d in (6, 10, 14):
        print(f"{d:>3}  " + "  ".join(f"{f:5.2f}" for f in frequencies("induced", d, trials)))
    print("\nmixture states at d=10 for comparison")
    print(" 10  " + "  ".join(f"{f:5.2f}" for f in frequencies("mixture", 10, trials)))


if __name__ == "__main__":
    main()

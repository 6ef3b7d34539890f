"""Command-line harness for the seeded Monte Carlo experiments.

Subcommands: spectrum, extremes, ppt, pure, selftest, laws.  Reports are
written as JSON or CSV; per-trial records are a pure function of the config
and master seed.  Exit codes: 0 all good, 1 usage error, 2 self-test
failure, 3 threshold miss in --check mode.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

from . import experiments, reporting
from .errors import ParameterError

PROG = "ptwishart"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SELFTEST = 2
EXIT_THRESHOLD = 3

_DEFAULTS = {
    # subcommand: (d, trials) chosen so a default run finishes in about a minute
    "spectrum": (30, 10),
    "extremes": (40, 10),
    "ppt": (15, 50),
    "pure": (50, 20),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(sub, subcommand, help):
    """The subparser of a Monte Carlo subcommand, with the options every runner reads."""
    d_default, trials_default = _DEFAULTS[subcommand]
    parser = sub.add_parser(subcommand, help=help, allow_abbrev=False)
    parser.add_argument("--d", type=int, default=None, help=f"square factor dimension d1 = d2 = d (default {d_default})")
    parser.add_argument("--d1", type=int, default=None, help="first factor dimension")
    parser.add_argument("--d2", type=int, default=None, help="second factor dimension")
    parser.add_argument("--trials", type=int, default=trials_default,
                        help=f"trials (for ppt, per alpha); a run makes at most {experiments.MAX_TRIALS} "
                             "draws, trials x alphas for ppt")
    parser.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--threads", type=int, default=1,
                        help=f"trial workers (1..{experiments.MAX_THREADS}, at most one per draw: per trial, "
                             "or for ppt per trial and alpha); with two or more, numpy's OpenBLAS runs its "
                             "start-up thread count // workers threads (at least 1) while they run")
    return parser


def _add_ancilla(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=float, default=None,
                       help="ancilla aspect ratio (default 4); p = alpha * d1 * d2, "
                            "floored unless within 1e-9 of an integer")
    group.add_argument("--p", type=int, default=None, help="explicit ancilla dimension")
    parser.add_argument("--field", choices=["real", "complex"], default="complex")


def _add_ensemble(parser, subcommand):
    choices = experiments.ENSEMBLES[subcommand]
    parser.add_argument("--ensemble", choices=choices, default=choices[0])


def _add_check(parser):
    parser.add_argument("--check", action="store_true", help="evaluate the built-in threshold; exit 3 on a miss")
    parser.add_argument("--tol", type=float, default=None, help="threshold for --check")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, allow_abbrev=False,
                     description="Partially transposed Wishart spectra: Monte Carlo and exact combinatorics")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = _add_common(sub, "spectrum", "eigenvalue distribution of partially transposed samples")
    _add_ancilla(sp)
    _add_check(sp)
    _add_ensemble(sp, "spectrum")
    sp.add_argument("--bins", type=int, default=experiments.DEFAULT_BINS)

    ex = _add_common(sub, "extremes", "extreme eigenvalues of partially transposed Wishart samples")
    _add_ancilla(ex)
    _add_check(ex)

    pp = _add_common(sub, "ppt", "PPT frequency sweep across ancilla aspect ratios")
    _add_ensemble(pp, "ppt")
    pp.add_argument("--alphas", type=float, nargs="+", default=[2.0, 3.0, 4.0, 5.0, 6.0, 8.0])

    pu = _add_common(sub, "pure", "spectrum of partially transposed uniform pure states")
    _add_check(pu)
    pu.set_defaults(ensemble=experiments.ENSEMBLES["pure"][0])

    st = sub.add_parser("selftest", help="exhaustive combinatorics and law-identity checks", allow_abbrev=False)
    st.add_argument("--format", choices=["csv", "json"], default="json")
    st.add_argument("--out", default=None)

    lw = sub.add_parser("laws", help="closed-form moment and density tables", allow_abbrev=False)
    lw.add_argument("--alpha", type=float, default=4.0)
    lw.add_argument("--bins", type=int, default=experiments.DEFAULT_BINS)
    lw.add_argument("--format", choices=["csv", "json"], default="json")
    lw.add_argument("--out", default=None)
    return parser


def _resolve_dims(args) -> tuple[int, int]:
    d_default, _ = _DEFAULTS[args.subcommand]
    if args.d is not None:
        if args.d1 is not None or args.d2 is not None:
            raise _UsageError("give either --d or --d1/--d2, not both")
        return args.d, args.d
    if (args.d1 is None) != (args.d2 is None):
        raise _UsageError("--d1 and --d2 must be given together")
    if args.d1 is not None:
        return args.d1, args.d2
    return d_default, d_default


def _build_config(args) -> experiments.ExperimentConfig:
    opts = {k: v for k, v in vars(args).items() if k not in ("d", "format", "out")}
    opts["d1"], opts["d2"] = _resolve_dims(args)
    # spectrum and extremes run at alpha = 4 unless --alpha or --p is given
    if "p" in opts and opts["alpha"] is None and opts["p"] is None:
        opts["alpha"] = 4.0
    return experiments.ExperimentConfig(**opts)


def _check_out(path: str):
    """Refuse before the run, not after it, a report path that cannot be written."""
    parent = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(parent) or not os.access(parent, os.W_OK)
            or (os.path.exists(path) and not os.access(path, os.W_OK))):
        raise _UsageError(f"cannot write the report to {path}")


def _summary_lines(report: dict) -> list[str]:
    lines = []
    aggregates = report.get("aggregates", {})
    for name, agg in aggregates.get("statistics", {}).items():
        lines.append(f"{name}: mean={agg['mean']:.6g} stderr={agg['stderr']:.3g} min={agg['min']:.6g} max={agg['max']:.6g}")
    for entry in aggregates.get("per_alpha", []):
        lines.append(
            f"alpha={entry['alpha']:g} p={entry['p']} ppt_frequency={entry['ppt_frequency']:.3f} "
            f"ci=[{entry['ci_low']:.3f}, {entry['ci_high']:.3f}]"
        )
    for item in report.get("items", []):
        status = "pass" if item["pass"] else "FAIL"
        lines.append(f"{status} {item['name']}: expected={item['expected']} actual={item['actual']}")
    for check in report.get("checks", []):
        status = "pass" if check["pass"] else "MISS"
        lines.append(f"{status} {check['name']}: value={check['value']:.6g} threshold={check['threshold']:.6g}")
    return lines


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.monotonic()
    budget = ""
    try:
        if args.out:
            _check_out(args.out)
        if args.subcommand == "selftest":
            report = experiments.run_selftest()
        elif args.subcommand == "laws":
            report = experiments.run_laws(args.alpha, args.bins)
        else:
            config = _build_config(args)
            runner = {
                "spectrum": experiments.run_spectrum,
                "extremes": experiments.run_extremes,
                "ppt": experiments.run_ppt_sweep,
                "pure": experiments.run_pure_state,
            }[args.subcommand]
            report = runner(config)
            budget = f"{experiments.thread_budget(config)}, "
    except (_UsageError, ParameterError) as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.monotonic() - start

    text = reporting.render(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        for line in _summary_lines(report):
            print(line)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    # timing, thread budget and peak memory are provenance for the console only; reports stay byte-reproducible
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    print(f"{PROG}: {args.subcommand} finished in {elapsed:.2f}s ({budget}peak RSS {peak_rss_mb:.0f} MB)", file=sys.stderr)

    if args.subcommand == "selftest" and not report["all_pass"]:
        return EXIT_SELFTEST
    if report.get("all_checks_pass") is False:
        return EXIT_THRESHOLD
    return EXIT_OK


def entry():
    raise SystemExit(main())

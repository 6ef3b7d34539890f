"""ptwishart benchmark: four seeded CLI workloads, one fresh process per call.

    python3 ptbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Each repetition starts `worker.py` in a new
interpreter, which imports ptwishart from `src/` and times one
`ptwishart.cli.main(argv)` call whose report goes to `ptbench/out/`.  This
process validates every report, repeats the call until `--seconds` have
passed, and prints the medians; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` gives the end-to-end metrics of BENCHMARK.json (tracing off).
`--trace 1` alternates untraced and traced repetitions and gives the
per-layer metrics: self times from spans recorded around every call into
a ptwishart module, plus `trace.overhead_s`, the traced minus the untraced
median wall time.  Spans go to a sidecar file in `ptbench/out/`.

`--smoke` runs the workload once at a small d, for the benchmark's own test.

Workloads (closed loop, one call at a time):
  spectrum_d30    the paper's main experiment: complex Wishart d=30, alpha=4,
                  KS against SC(1, 1/4) with per-gap quad, largest report
  extremes_d40    the big-matrix path (n=1600, p=6400): sampling, Gram and
                  eigensolve dominate; no KS, tiny report, 2 of n eigenvalues
  ppt_sweep_d15   many small induced states (n=225) over alpha {2..8} with two
                  trial workers on top of default BLAS threads
  selftest_exact  pure-Python partition enumeration and law quadrature; no
                  linear algebra.  It takes no seed: its inputs are fixed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# name: (unit, kind); "computed" values come from the workload's shapes and
# "counted" ones from call counts, so they repeat exactly for a given seed.
END_TO_END = {
    "wall_s": ("s", "measured"),
    "cpu_s": ("s", "measured"),
    "setup_s": ("s", "measured"),
    "peak_rss_mb": ("MB", "measured"),
}
PER_LAYER = {
    "ensembles.sample_ginibre.s": ("s/trial", "measured"),
    "ensembles.gram.s": ("s/trial", "measured"),
    "ensembles.gram.gflop": ("GFLOP/trial", "computed"),
    "ensembles.gram.gflop_per_s": ("GFLOP/s", "measured"),
    "ensembles.g_bytes_mb": ("MB", "computed"),
    "ensembles.sample_induced_state.s": ("s/trial", "measured"),
    "linalg.partial_transpose.s": ("s/trial", "measured"),
    "linalg.is_hermitian.s": ("s/trial", "measured"),
    "linalg.hermitian_eigenvalues.s": ("s/trial", "measured"),
    "linalg.eigenvalues_used_ratio": ("ratio", "computed"),
    "laws.density_calls": ("count", "counted"),
    "laws.quadrature_moment.s": ("s", "measured"),
    "spectra.ks_distance.s": ("s/trial", "measured"),
    "spectra.moments.s": ("s/trial", "measured"),
    "spectra.histogram.s": ("s/trial", "measured"),
    "spectra.sample.s": ("s/trial", "measured"),
    "spectra.ppt_gauge.s": ("s/trial", "measured"),
    "spectra.other.s": ("s/trial", "measured"),
    "partitions.enumerate.s": ("s", "measured"),
    "partitions.enumerate.calls": ("count", "counted"),
    "partitions.kreweras.s": ("s", "measured"),
    "partitions.kreweras.calls": ("count", "counted"),
    "partitions.matching.s": ("s", "measured"),
    "partitions.matching.calls": ("count", "counted"),
    "partitions.admissible.s": ("s", "measured"),
    "partitions.admissible.calls": ("count", "counted"),
    "experiments.overhead_s": ("s", "measured"),
    "reporting.render.s": ("s", "measured"),
    "reporting.report_bytes": ("bytes", "counted"),
    "cli.overhead_s": ("s", "measured"),
    "trace.overhead_s": ("s", "measured"),
}

ALPHAS = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0)

# name: CLI arguments, d, trials per call, and the small d and trials of --smoke.
# Trials are set so that one call takes 2-4 s and a run of BENCHMARK.json's
# run_seconds (25) repeats it at least five times.
WORKLOADS = {
    "spectrum_d30": (["spectrum", "--alpha", "4", "--check", "--threads", "1"], 30, 2, 12, 2),
    "extremes_d40": (["extremes", "--alpha", "4", "--check", "--threads", "1"], 40, 1, 16, 1),
    "ppt_sweep_d15": (["ppt", "--ensemble", "induced", "--threads", "2"], 15, 12, 8, 2),
    "selftest_exact": (["selftest"], None, None, None, None),
}

SETUP_SAMPLES = 5
# every worker is stopped by then, so a run ends within the 180 s it is allowed
DEADLINE_S = 160.0


def build_argv(workload: str, seed: int, smoke: bool, out: Path) -> tuple[list[str], int, int]:
    args, d, trials, smoke_d, smoke_trials = WORKLOADS[workload]
    argv = list(args)
    if smoke:
        d, trials = smoke_d, smoke_trials
    if d is not None:
        argv += ["--d", str(d), "--trials", str(trials), "--seed", str(seed)]
    return argv + ["--out", str(out)], d, trials


def validate(report: dict, subcommand: str, d, trials) -> list[str]:
    """Structure and science checks on one report; returns the problems found."""
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    if subcommand == "selftest":
        items = report.get("items", [])
        need(items, "selftest has no items")
        need(report.get("all_pass") is True, "selftest all_pass is not true")
        need(all(item.get("pass") is True for item in items), "a selftest item failed")
        return problems

    need(report.get("config", {}).get("trials") == trials, "trial count differs from argv")
    need(report.get("config", {}).get("d1") == d and report["config"].get("d2") == d, "dimensions differ")
    n = d * d
    records = report.get("records", [])
    if subcommand == "spectrum":
        spectra = report.get("spectra", [])
        need(len(spectra) == trials, f"{len(spectra)} spectra for {trials} trials")
        for entry in spectra:
            need(len(entry.get("eigenvalues", [])) == n, f"trial {entry.get('trial')} lacks {n} eigenvalues")
            need(sum(entry.get("histogram", {}).get("counts", [])) == n, "histogram does not count n eigenvalues")
        need(len({r["trial"] for r in records}) == trials, "records do not cover every trial")
        need(report.get("all_checks_pass") is True, "--check failed: mean KS above threshold")
        # KS <= 0.08 alone also passes an untransposed Wishart (KS ~0.075 at
        # d=30); its skew (centered m3 = 1/alpha^2) does not pass this.
        m3 = report["aggregates"]["statistics"]["centered_moment_k3"]["mean"]
        want = report["theory"]["centered_moments"]["centered_moment_k3"]
        need(abs(m3 - want) <= 0.02, f"centered third moment {m3:.4f} is not the semicircle's {want}")
    elif subcommand == "extremes":
        need(len(records) == 3 * trials, "extremes records are not three per trial")
        need(report.get("all_checks_pass") is True, "--check failed: edge deviation above threshold")
    elif subcommand == "ppt":
        per_alpha = report.get("aggregates", {}).get("per_alpha", [])
        freq = {entry["alpha"]: entry["ppt_frequency"] for entry in per_alpha}
        need(tuple(freq) == ALPHAS, f"alpha grid {tuple(freq)} is not {ALPHAS}")
        need(all(entry["trials"] == trials for entry in per_alpha), "per-alpha trial count differs")
        need(len(records) == 3 * trials * len(ALPHAS), "ppt records are not three per trial")
        need(freq.get(2.0) == 0.0, f"PPT frequency at alpha=2 is {freq.get(2.0)}, not 0")
        need(freq.get(8.0) == 1.0, f"PPT frequency at alpha=8 is {freq.get(8.0)}, not 1")
    return problems


def spawn(result: Path, timeout: float, argv=None, spans=None) -> tuple[dict | None, str]:
    """Run worker.py once; returns its result (None on failure) and its stderr."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--result", str(result)]
    if argv is not None:
        cmd += ["--argv", json.dumps(argv)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    result.unlink(missing_ok=True)
    if timeout < 1.0:
        return None, "no time left before the deadline"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        return None, proc.stderr.strip()
    return json.loads(result.read_text()), proc.stderr.strip()


def repetition(workload: str, seed: int, smoke: bool, traced: bool, timeout: float) -> dict:
    """One timed CLI call plus validation of its report."""
    tag = f"{workload}-seed{seed}"
    report_path = (OUT / f"report-{tag}.json").relative_to(ROOT)
    (ROOT / report_path).unlink(missing_ok=True)
    argv, d, trials = build_argv(workload, seed, smoke, report_path)
    spans = OUT / f"spans-{tag}.json" if traced else None
    result, stderr = spawn(OUT / f"worker-{tag}.json", timeout, argv, spans)
    rep = {"traced": traced, "result": result, "problems": []}
    if result is None:
        rep["problems"].append(f"worker failed: {stderr[-2000:]}")
        return rep
    if result["exit_code"] != 0:
        rep["problems"].append(f"cli.main exited {result['exit_code']}: {stderr[-2000:]}")
    try:
        data = (ROOT / report_path).read_bytes()
        rep["report_sha256"] = hashlib.sha256(data).hexdigest()
        rep["problems"] += validate(json.loads(data), argv[0], d, trials)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rep["problems"].append(f"report unreadable: {exc!r}")
    if traced:
        # spectrum reads every eigenvalue; extremes and ppt read the two ends
        used = 1.0 if argv[0] == "spectrum" else 2.0 / (d * d) if d else 0.0
        result["layers"]["linalg.eigenvalues_used_ratio"] = used
    return rep


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one call at a small d")
    opts = parser.parse_args()
    if not 0 <= opts.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not (ROOT / "src" / "ptwishart" / "cli.py").is_file():
        print(f"run.py: no ptwishart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    def remaining():
        return deadline - time.monotonic()

    tag = f"{opts.workload}-seed{opts.seed}"
    if not opts.smoke:
        # warm-up: byte-code and page caches fill here, not in a timed call
        spawn(OUT / f"probe-{tag}.json", remaining())

    reps = []
    window = time.monotonic()
    plan = [False, True] if opts.trace else [False]
    while True:
        for traced in plan:
            reps.append(repetition(opts.workload, opts.seed, opts.smoke, traced, remaining()))
        if opts.smoke or time.monotonic() - window >= opts.seconds:
            break

    timed = [r for r in reps if r["result"] is not None]
    failed = sum(1 for r in reps if r["problems"])
    if not timed:
        for r in reps:
            print("\n".join(r["problems"]), file=sys.stderr)
        return 1
    for r in reps:
        for problem in r["problems"]:
            print(f"run.py: {opts.workload}: {problem}", file=sys.stderr)

    untraced = [r["result"] for r in timed if not r["traced"]]
    traced = [r["result"] for r in timed if r["traced"]]
    spread = {}

    def med(name, results):
        values = [res[name] for res in results]
        spread[name] = quartiles(values)
        return statistics.median(values)

    if opts.trace:
        if not traced or not untraced:
            print("run.py: no traced or no untraced repetition finished", file=sys.stderr)
            return 1
        for missing in sorted({m for res in traced for m in res["accounting"]["missing_targets"]}):
            print(f"run.py: {missing} no longer exists; its layer reads 0", file=sys.stderr)
        values = {name: statistics.median(res["layers"][name] for res in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", untraced)
        table = PER_LAYER
    else:
        setup = [res["setup_s"] for res in untraced]
        while len(setup) < (1 if opts.smoke else SETUP_SAMPLES):
            probe, stderr = spawn(OUT / f"probe-{tag}.json", remaining())
            if probe is None:
                print(f"run.py: set-up probe failed: {stderr[-2000:]}", file=sys.stderr)
                return 1
            setup.append(probe["setup_s"])
        spread["setup_s"] = quartiles(setup)
        values = {name: med(name, untraced) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)
        table = END_TO_END

    provenance = timed[0]["result"]["provenance"]
    summary = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "provenance": provenance,
        "report_sha256": sorted({r["report_sha256"] for r in reps if "report_sha256" in r}),
        "failed_ratio": failed / len(reps),
        "kinds": {name: kind for name, (_, kind) in table.items()},
        "quartiles": spread,
        "repetitions": reps,
    }
    with open(OUT / f"result-{tag}-trace{opts.trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1)

    for name, (unit, kind) in table.items():
        print(f"{name:36s} {values[name]:14.6g} {unit:12s} {kind}")
    print(f"{'failed_ratio':36s} {failed / len(reps):14.6g} {'1':12s} counted ({failed}/{len(reps)} runs)")
    if opts.trace:
        # cli self + runner self + render + wall with some layer busy = traced
        # wall, which is the untraced wall plus trace.overhead_s
        acc = {k: statistics.median(res["accounting"][k] for res in traced)
               for k in ("cli_self_s", "runner_self_s", "render_s", "layers_wall_s", "layers_busy_s")}
        print("accounting: " + " ".join(f"{k}={v:.4f}" for k, v in acc.items())
              + f" sum={sum(acc.values()) - acc['layers_busy_s']:.4f}"
              + f" traced_wall_s={med('wall_s', traced):.4f} untraced_wall_s={med('wall_s', untraced):.4f}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

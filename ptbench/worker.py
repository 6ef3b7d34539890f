"""One benchmark repetition in a fresh interpreter.

    python3 ptbench/worker.py --spawned T --result PATH [--argv JSON] [--spans PATH]

`--spawned` is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on the machine), so
`setup_s` runs from interpreter start to "ready": numpy, scipy and ptwishart
imported and BLAS warmed by one tiny eigensolve.  Without `--argv` the worker
stops there.  Otherwise it times `ptwishart.cli.main(argv)` (wall, user+sys
CPU of the process, peak RSS), with spans recorded when `--spans` is given,
and writes its result as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ptwishart  # noqa: E402
from ptwishart import cli  # noqa: E402

import spans  # noqa: E402


def _warm_blas():
    a = np.arange(16.0).reshape(4, 4)
    np.linalg.eigvalsh(a @ a.T)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": None}


def provenance(argv: list[str]) -> dict:
    def flag(name, default=None):
        return argv[argv.index(name) + 1] if name in argv else default

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ptwishart": ptwishart.__version__,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "trial_workers": int(flag("--threads", 1)),
        "seed": None if flag("--seed") is None else int(flag("--seed")),
        "argv": argv,
    }


def layer_values(tracer: spans.Tracer, report_path: str) -> tuple[dict, dict]:
    """Per-layer metric values and the wall-time accounting of one traced call."""
    records = tracer.spans
    spans.self_times(records)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for s in records:
        self_s[s["name"]] += s["self"]
        calls[s["name"]] += 1
    trials = len({s["trial"] for s in records if s["trial"] is not None})

    def per_trial(x):
        return x / trials if trials else 0.0

    grams = [s["attrs"] for s in records if s["name"] == "ensembles.gram"]
    gflop = sum((8 if g["field"] == "complex" else 2) * g["n"] ** 2 * g["p"] / 1e9 for g in grams)
    g_bytes = max(((16 if g["field"] == "complex" else 8) * g["n"] * g["p"] / 1e6 for g in grams), default=0.0)
    ks_calls = tracer.counts["spectra.ks_calls"]

    values = {
        "ensembles.sample_ginibre.s": per_trial(self_s["ensembles.sample_ginibre"]),
        "ensembles.gram.s": per_trial(self_s["ensembles.gram"]),
        "ensembles.gram.gflop": per_trial(gflop),
        "ensembles.gram.gflop_per_s": gflop / self_s["ensembles.gram"] if grams else 0.0,
        "ensembles.g_bytes_mb": g_bytes,
        "ensembles.sample_induced_state.s": per_trial(self_s["ensembles.sample_induced_state"]),
        "linalg.partial_transpose.s": per_trial(self_s["linalg.partial_transpose"]),
        "linalg.is_hermitian.s": per_trial(self_s["linalg.is_hermitian"]),
        "linalg.hermitian_eigenvalues.s": per_trial(self_s["linalg.hermitian_eigenvalues"]),
        "laws.density_calls": tracer.counts["laws.density_calls"] / ks_calls if ks_calls else 0.0,
        "laws.quadrature_moment.s": self_s["laws.quadrature_moment"],
        "spectra.ks_distance.s": per_trial(self_s["spectra.ks_distance"]),
        "spectra.moments.s": per_trial(self_s["spectra.moments"]),
        "spectra.histogram.s": per_trial(self_s["spectra.histogram"]),
        "spectra.sample.s": per_trial(self_s["spectra.sample"]),
        "spectra.ppt_gauge.s": per_trial(self_s["spectra.ppt_gauge"]),
        "spectra.other.s": per_trial(self_s["spectra.other"]),
        "experiments.overhead_s": self_s["experiments.runner"],
        "reporting.render.s": self_s["reporting.render"],
        "reporting.report_bytes": float(os.path.getsize(report_path)),
        "cli.overhead_s": self_s["cli.main"],
    }
    for part in ("enumerate", "kreweras", "matching", "admissible"):
        values[f"partitions.{part}.s"] = self_s[f"partitions.{part}"]
        values[f"partitions.{part}.calls"] = float(calls[f"partitions.{part}"])

    root = next(s for s in records if s["name"] == "cli.main")
    runner = next((s for s in records if s["name"] == "experiments.runner"), None)
    accounting = {
        "trials": trials,
        "spans": len(records),
        "cli_main_s": root["busy"],
        "cli_self_s": root["self"],
        "runner_self_s": runner["self"] if runner else 0.0,
        "render_s": self_s["reporting.render"],
        # wall time during which some layer below the runner was busy, and the
        # thread-seconds spent there; they differ when trials run in parallel
        "layers_wall_s": spans.layer_union(records, runner["id"]) if runner else 0.0,
        "layers_busy_s": sum(v for k, v in self_s.items()
                             if k not in ("cli.main", "experiments.runner", "reporting.render")),
        "missing_targets": tracer.missing,
    }
    return values, accounting


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--argv", default=None, help="JSON list passed to ptwishart.cli.main")
    parser.add_argument("--spans", default=None, help="record spans and write them here")
    opts = parser.parse_args()

    _warm_blas()
    result = {"setup_s": time.monotonic() - opts.spawned}
    if opts.argv is not None:
        argv = json.loads(opts.argv)
        tracer = None
        if opts.spans:
            tracer = spans.Tracer()
            spans.install(tracer)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer:
            code = tracer.call("cli.main", cli.main, (argv,), {})
        else:
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            provenance=provenance(argv),
        )
        if tracer:
            values, accounting = layer_values(tracer, argv[argv.index("--out") + 1])
            result.update(layers=values, accounting=accounting)
            with open(opts.spans, "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

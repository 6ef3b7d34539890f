"""Compare the reports of two ptwishart source trees, byte for byte.

    python3 tools/same_reports.py PARENT_TREE CHANGE_TREE

Each tree is a checkout with the package under `src/`.  Every argv in ARGVS
runs in JSON and in CSV, once per tree and one process at a time, as
`PYTHONPATH=<tree>/src python3 -m ptwishart ARGV --format F --out FILE`.
One line per run says "same" or "differs" and gives both exit codes; a run is
the same when the exit codes are equal and so are the report files (or both
are missing, as after a usage error).  The exit code is 1 if any run differs
and 2 on a bad command line.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# one process runs for at most this long
TIMEOUT_S = 600

ARGVS = [
    # spectrum: every ensemble and field, threads, an unbalanced shape, and both
    # sides of the two-stage eigensolve bound (n = 378 and n = 380)
    ["spectrum", "--d", "6", "--trials", "3", "--seed", "11"],
    ["spectrum", "--d", "8", "--trials", "3", "--field", "real", "--threads", "2"],
    ["spectrum", "--d", "6", "--trials", "3", "--ensemble", "induced"],
    ["spectrum", "--d", "5", "--trials", "3", "--ensemble", "mixture", "--check"],
    ["spectrum", "--d1", "3", "--d2", "5", "--trials", "3"],
    ["spectrum", "--d", "4", "--trials", "2", "--threads", "3"],
    ["spectrum", "--d", "17", "--trials", "2"],
    ["spectrum", "--d1", "18", "--d2", "21", "--trials", "2"],
    ["spectrum", "--d1", "19", "--d2", "20", "--trials", "2"],
    ["spectrum", "--alpha", "4", "--check", "--threads", "1", "--d", "30", "--trials", "2", "--seed", "1"],
    # extremes: a threshold pass and a miss (exit 3), the real field, an explicit
    # p (alpha = p / n in the edge theory and the check), n = 1600, and both
    # sides of the two-stage bound (n = 378 and n = 380)
    ["extremes", "--d", "10", "--trials", "3", "--check"],
    ["extremes", "--d", "10", "--trials", "2", "--check", "--tol", "1e-9"],
    ["extremes", "--d", "17", "--trials", "2", "--field", "real"],
    ["extremes", "--d", "12", "--p", "500", "--trials", "2", "--check"],
    ["extremes", "--alpha", "4", "--check", "--threads", "1", "--d", "40", "--trials", "1", "--seed", "1"],
    ["extremes", "--d1", "18", "--d2", "21", "--trials", "1"],
    ["extremes", "--d1", "19", "--d2", "20", "--trials", "1"],
    # two trial workers on the band's ends (n = 400)
    ["extremes", "--d", "20", "--trials", "2", "--threads", "2"],
    # the real field above the two-stage bound (n = 400): dsytrd and dstebz
    ["extremes", "--d", "20", "--trials", "1", "--field", "real"],
    # ppt: trials above and below the worker count, the mixture ensemble, 2 x 3,
    # and n = 400 on the two-stage reduction's band, induced and mixture states
    ["ppt", "--d", "6", "--trials", "5", "--threads", "2"],
    ["ppt", "--d", "6", "--trials", "1", "--threads", "2"],
    ["ppt", "--d", "4", "--trials", "4", "--ensemble", "mixture", "--alphas", "2", "8"],
    ["ppt", "--d1", "2", "--d2", "3", "--trials", "4"],
    # two qubits (n = 4), at alpha = 1 the Hilbert-Schmidt measure
    ["ppt", "--d", "2", "--alphas", "1", "2", "--trials", "200", "--seed", "3"],
    ["ppt", "--ensemble", "induced", "--threads", "2", "--d", "15", "--trials", "12", "--seed", "1"],
    ["ppt", "--d", "20", "--trials", "2", "--alphas", "3", "5"],
    ["ppt", "--d", "20", "--ensemble", "mixture", "--alphas", "3", "5", "--trials", "1"],
    # two workers, a trapezoidal (p < n) Bartlett factor over two column blocks
    # of the draw, and a square one over four
    ["ppt", "--d", "15", "--trials", "3", "--threads", "2", "--alphas", "0.5", "4"],
    # pure: one trial worker and two
    ["pure", "--d", "6", "--trials", "3", "--check"],
    ["pure", "--d", "30", "--trials", "4", "--threads", "2"],
    # the law quadrature, the default (alpha = 4) law tables and those at alpha =
    # 0.5, a mixture whose p = 576 > GRAM_CHUNK takes two Gram updates, and the
    # real field's lauum (n = 256) under a two-worker BLAS split
    ["selftest"],
    ["laws"],
    ["laws", "--alpha", "0.5"],
    ["spectrum", "--d", "12", "--trials", "2", "--ensemble", "mixture"],
    ["spectrum", "--d", "16", "--trials", "2", "--field", "real", "--threads", "2"],
    # odd, unbalanced shapes on the lauum path (n = 272) and on the two-stage
    # path (n = 1260), zherk's F-ordered draw (p < n) on the two-stage path
    # (n = 1296), an explicit p below n (zherk and dsyrk at n = 289), and
    # induced states at n = 256 (lauum) for spectrum and ppt
    ["spectrum", "--d1", "17", "--d2", "16", "--trials", "2"],
    ["extremes", "--d1", "36", "--d2", "35", "--trials", "1"],
    ["extremes", "--d", "36", "--p", "600", "--trials", "1"],
    ["spectrum", "--d", "17", "--p", "100", "--trials", "2"],
    ["spectrum", "--d", "17", "--p", "100", "--field", "real", "--trials", "2"],
    ["spectrum", "--d", "16", "--trials", "2", "--ensemble", "induced"],
    ["ppt", "--d", "16", "--trials", "2", "--alphas", "3", "5", "--threads", "2"],
    # p = n = 256, the lauum route's square-factor boundary, for Wishart and
    # for induced states
    ["spectrum", "--d", "16", "--p", "256", "--trials", "2"],
    ["ppt", "--d", "16", "--alphas", "1", "--trials", "2"],
    # an alpha where 1 - 2 / sqrt(alpha) and 1 - 2 sqrt(1 / alpha), the
    # semicircle's own lower edge, differ in the last bit: extremes at alpha = 2
    # and spectrum at alpha = 3
    ["extremes", "--d", "8", "--alpha", "2", "--trials", "2", "--check"],
    ["spectrum", "--d", "6", "--alpha", "3", "--trials", "2"],
    # a usage error writes no report
    ["spectrum", "--trials", "0"],
]


def run(tree: Path, argv: list[str], out: Path) -> tuple[int, bytes | None]:
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    code = subprocess.run([sys.executable, "-m", "ptwishart", *argv, "--out", str(out)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    return code, out.read_bytes() if out.exists() else None


def main(args: list[str]) -> int:
    trees = [Path(a).resolve() for a in args]
    if len(trees) != 2 or not all((t / "src" / "ptwishart").is_dir() for t in trees):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ARGVS:
            for fmt in ("json", "csv"):
                full = argv + ["--format", fmt]
                (code_a, report_a), (code_b, report_b) = (
                    run(tree, full, Path(tmp) / f"{side}.{fmt}") for side, tree in zip("ab", trees))
                same = code_a == code_b and report_a == report_b
                differing += not same
                print(f"{'same' if same else 'differs':7s} exit {code_a} {code_b}  {' '.join(full)}", flush=True)
    print(f"{len(ARGVS) * 2 - differing} same, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

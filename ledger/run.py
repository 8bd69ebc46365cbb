"""The ledger benchmark: training and serving, end to end and by layer.

Usage, from the root of a checkout::

    python3 ledger/run.py --workload ml1m-als-k32 --seed 1 --seconds 20 --trace 0
    python3 ledger/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh Python process whose environment is pinned:
one BLAS/OpenMP thread, no ``REPRO_*`` variables, the checkout's ``src``
on the path.  The process prints every metric by name and unit and, as its
last line, one JSON object; ``--trace 0`` reports the end-to-end metrics
and ``--trace 1`` the per-layer ones from a separate traced run.  The
exit code is non-zero when an output check fails or a workload cannot run.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ml1m-als-k32", "ymr4-ials-k64", "ml1m-serve-update")
TIMEOUT_S = 175.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def workload_env() -> dict:
    """The parent environment with thread counts pinned and knobs removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_one(name: str, args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, env=workload_env(), cwd=ROOT)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"ledger: {name} exceeded {TIMEOUT_S:g} s", file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every dataset (smoke test of the code paths)")
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, so run_one kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for name in names:
        code = run_one(name, args)
        if code:
            print(f"ledger: {name} failed with exit code {code}", file=sys.stderr)
            worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())

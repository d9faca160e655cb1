#!/usr/bin/env python3
"""fracosc benchmark: one workload, one seed, one fresh measured process.

    python3 perfbench/run.py --workload long-memory --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fracosc is imported from ``src/``.
The untraced run (``--trace 0``) prints the end-to-end metrics; the traced
run (``--trace 1``) runs round 0 of the seed once, whatever ``--seconds``
says, and prints the per-layer metrics. Either way the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable report. ``failed`` counts jobs that failed in
a way not listed in ``jobs.KNOWN_DEFECTS``; jobs that hit a listed seed
defect are reported as ``known defects`` and in ``fail_ratio``.

Set-up time is interpreter start plus ``import fracosc.cli``, the median of
14 fresh spawns, half before and half after the measured process. The measured process runs with BLAS/OpenMP threads
pinned to 1. Scratch files go to ``.perfbench/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-up spawns before and after the measured process, so that the median
#: samples the machine at both ends of the run
SETUP_SPAWNS = 7
#: percentile behind job_s.tail; a run has at least 50 jobs at the seed
#: commit, so at least 10 jobs lie beyond it
TAIL_PERCENTILE = 80
#: the whole run, spawns included, is cut off after this many seconds
DEADLINE_S = 170
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(env) -> list[float]:
    """Wall times of fresh ``python3 -c "import fracosc.cli"`` spawns."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        # no timeout argument: with one, the wait polls in steps of up to
        # 50 ms and the times come out in 50 ms steps; main's alarm bounds it
        subprocess.run([sys.executable, "-c", "import fracosc.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _deadline(signum, frame):
    # subprocess.run kills and reaps its child when this propagates
    raise TimeoutError(f"no result within {DEADLINE_S} s")


def percentile(values, q) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fracosc", "__init__.py")):
        print(f"no fracosc sources under {ROOT}/src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    env = child_env()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--scratch", scratch]
    try:
        setup = [] if args.trace else setup_times(env)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if not args.trace:
            setup += setup_times(env)
    except (TimeoutError, subprocess.CalledProcessError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"the measured process failed with exit code {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    times = res["times"]
    attempted = len(times)
    failed = len(res["failures"])
    print(f"workload {args.workload}  seed {args.seed}  rounds {res['rounds']}  jobs {attempted}")
    print(f"fail_ratio {(failed + res['known_jobs']) / attempted:.4f}  "
          f"(unexpected {failed}, known seed defects {res['known_jobs']}: {res['known']})")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    if args.trace:
        out = {name: {"value": res["per_layer"][name], "unit": unit}
               for name, unit, _ in tracing.per_layer_metrics()}
    else:
        out = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "job_s.p50": {"value": statistics.median(times), "unit": "s"},
            "job_s.tail": {"value": percentile(times, TAIL_PERCENTILE), "unit": "s"},
            "jobs_per_s": {"value": attempted / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        if attempted < 10 * 100 // (100 - TAIL_PERCENTILE):
            print(f"note: only {attempted} jobs; job_s.tail (p{TAIL_PERCENTILE}) has fewer than 10 beyond it")
    for name, m in out.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

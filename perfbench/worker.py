"""The measured process: one client running one job at a time (closed loop).

Started by ``run.py`` in a fresh interpreter with the thread variables
pinned. Untraced, it repeats whole rounds of the workload until ``--seconds``
have passed and times every job. Traced, it runs round 0 once, each job
untraced and then traced (in alternating order), and reports the per-layer
metrics. It prints one JSON line for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

import jobs
import tracing


def _run_one(ctx, spec):
    """Build and time one job: (seconds, output, exception, oracle)."""
    run, check = jobs.make_job(ctx, spec)
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # a failing job is a result, not a crash
        return time.perf_counter() - t0, None, exc, check
    return time.perf_counter() - t0, out, None, check


def _verdict(out, err, check) -> jobs.Verdict:
    if err is not None:
        return jobs.Verdict(False, f"{type(err).__name__}: {err}")
    try:
        return check(out)
    except Exception as exc:
        return jobs.Verdict(False, f"oracle could not read the output: {exc!r}")


def _record(result, spec, seconds, verdict):
    result["times"].append(seconds)
    if verdict.known:
        for c in verdict.known:
            result["known"][c] = result["known"].get(c, 0) + 1
        result["known_jobs"] += 1
    elif not verdict.ok:
        result["failures"].append(f"{jobs.job_label(spec)}: {verdict.cause}")


def untraced(ctx, workload, seed, seconds):
    result = {"times": [], "known": {}, "known_jobs": 0, "failures": [], "rounds": 0}
    start = time.perf_counter()
    rnd = 0
    while True:
        for spec in jobs.round_specs(workload, seed, rnd):
            dt, out, err, check = _run_one(ctx, spec)
            _record(result, spec, dt, _verdict(out, err, check))
            ctx.cleanup()
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    result["rounds"] = rnd
    return result


def traced(ctx, workload, seed, out_dir):
    import fracosc.expr as ex

    result = {"times": [], "known": {}, "known_jobs": 0, "failures": [], "rounds": 1}
    tracer = tracing.Tracer()
    expr_types = (ex.Num, ex.Var, ex.Call, ex.Neg, ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Pow)
    traced_s = untraced_s = 0.0
    max_chars = 0
    for i, spec in enumerate(jobs.round_specs(workload, seed, 0)):
        runs = {}
        for mode in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if mode == "traced":
                tracer.job = i
                tracer.install()
                try:
                    runs[mode] = _run_one(ctx, spec)
                finally:
                    tracer.uninstall()
                built = tracer.take_built()
                max_chars = max(max_chars, tracing.max_printed_chars(built, ex.to_str, expr_types))
            else:
                runs[mode] = _run_one(ctx, spec)
        (dt_p, out_p, err_p, check), (dt_t, out_t, err_t, _) = runs["plain"], runs["traced"]
        traced_s += dt_t
        untraced_s += dt_p
        verdict = _verdict(out_p, err_p, check)
        same = (err_p is None) == (err_t is None) and (
            err_p is not None or jobs.fingerprint(out_p) == jobs.fingerprint(out_t))
        if not same:
            verdict = jobs.Verdict(False, "traced output differs from the untraced output")
        _record(result, spec, dt_p, verdict)
        ctx.cleanup()
    result["per_layer"] = tracer.metrics(traced_s, untraced_s, max_chars)
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(jobs.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--scratch", required=True, help="empty directory for job files")
    args = p.parse_args(argv)

    import fracosc

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(fracosc.__file__).startswith(src + os.sep):
        print(f"fracosc was imported from {fracosc.__file__}, not from {src}", file=sys.stderr)
        return 2
    try:
        ctx = jobs.Context(args.scratch)
        if args.trace:
            result = traced(ctx, args.workload, args.seed, os.path.join(args.root, ".perfbench", "traces"))
        else:
            result = untraced(ctx, args.workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Closed-loop benchmark of switchgain's offline queries.

    python3 perfbench/run.py --workload {gain_search,verdict,long_signal}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from ./src.
One caller issues each query only after the previous one returned: no extra
threads, and BLAS pinned to one thread in this process's environment.

--trace 0  sets up (imports, input generation from the seed, reference
           loading, warm-up), then runs whole passes over the workload's
           queries, at least two, until S seconds have elapsed, checks every
           answer, and prints the end-to-end metrics.  Set-up is also timed in
           four child processes and setup_s is the median of the five.
--trace 1  runs one pass with span-recording wrappers (spans.py) around each
           layer's public functions and the numeric kernels they call, then
           the same pass untraced; it prints the per-layer metrics and the
           tracing overhead (traced minus untraced time), and writes the spans
           to perfbench/out/.

Informational JSON lines (machine, tail percentile, per-query outcomes,
time shares) come first; the last line of stdout is the result object.
"""

import os
import sys
import time

_T0 = time.perf_counter()

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# distinct inputs are generated for this many passes; a longer run reuses them
PASSES = 12
# a timed run is whole passes, at least this many, until --seconds have elapsed
MIN_PASSES = 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402



def metric_units(kind):
    """{name: unit} of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up alone and print it (used for the set-up samples)")
    return p.parse_args(argv)


def import_library():
    """Import switchgain from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import switchgain

    origin = os.path.dirname(os.path.abspath(switchgain.__file__))
    if os.path.dirname(origin) != SRC:
        raise ImportError(f"switchgain imported from {origin}, not from {SRC}")
    return switchgain


def warm_up(sg, np):
    """One small call into each kernel path, so lazy imports happen in set-up."""
    core, flows, l2gain, spectral = sg.core, sg.flows, sg.l2gain, sg.spectral
    scalar = core.SystemSpec(1, 1, 1, (core.Mode(np.array([[-1.0]]), np.array([[1.0]]),
                                                 np.array([[1.0]])),))
    sig = core.Signal(((0, 0.5),))
    l2gain.gain_for_signal(scalar, sig, 0.5, 1e-2)
    spectral.rho_estimate(scalar, core.SignalClassSpec.dwell(0.5), upper_opts={"delta": 0.1})
    flows.simulate(scalar, sig, np.zeros((5, 1)), [1.0], 0.1)
    flows.gramians(scalar, sig, 0.0, 0.5)


def setup(workload, seed, workdir):
    """Import, build the seeded inputs, load reference answers, warm up."""
    import numpy as np

    sg = import_library()
    sys.path.insert(0, HERE)
    import workloads

    passes = workloads.build(workload, seed, workdir, PASSES)
    reference = workloads.load_reference(os.path.join(HERE, "reference.json"))
    warm_up(sg, np)
    return passes, reference


def run_pass(queries, reference, tracer=None):
    """Run every query once, in order; time each call and check its answer."""
    import workloads

    answers = {}
    records = []
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.qid = qid
        failure = None
        answer = None
        start = time.perf_counter()
        try:
            answer = q.run()
        except Exception as exc:  # a raising query is a failed query, and the run goes on
            failure = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.qid = -1
        if failure is None:
            answers[q.key] = answer
            try:
                failure = workloads.check(q, answer, answers, reference)
            except Exception as exc:  # a check that cannot read the answer fails it
                failure = f"check raised {type(exc).__name__}: {exc}"
        undetermined = failure is None and q.decision and bool(q.undetermined(answer))
        records.append((q.key, latency, failure, q.decision, undetermined))
    return records


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * k / n


def resolve_ref(git, ref):
    """SHA of a ref: its loose file, else its line in packed-refs, else the ref itself."""
    loose = os.path.join(git, ref)
    if os.path.exists(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(git, "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return f"ref: {ref}"


def machine_info():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None                    # a checkout without .git reports only source_sha256
    git = os.path.join(ROOT, ".git")
    if os.path.exists(os.path.join(git, "HEAD")):
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            commit = fh.read().strip()
        if commit.startswith("ref: "):
            commit = resolve_ref(git, commit[5:])
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "switchgain")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def child_setup_seconds(args, count):
    """Set-up time measured in fresh processes (imports are only cold once per process)."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def per_query(records):
    table = {}
    for key, latency, failure, decision, undetermined in records:
        row = table.setdefault(key, {"n": 0, "latencies": [], "failed": 0, "undetermined": 0})
        row["n"] += 1
        row["latencies"].append(latency)
        row["failed"] += failure is not None
        row["undetermined"] += undetermined
    for row in table.values():
        row["p50_s"] = statistics.median(row.pop("latencies"))
    return table


def summary_counts(records):
    attempted = len(records)
    failed = sum(1 for r in records if r[2] is not None)
    decisions = sum(1 for r in records if r[3])
    undetermined = sum(1 for r in records if r[4])
    return attempted, failed, decisions, undetermined


def emit(line):
    print(json.dumps(line, sort_keys=True), flush=True)


def timed_run(args, passes, reference, setup_main):
    setups = [setup_main] + child_setup_seconds(args, 4)
    records = []
    start = time.perf_counter()
    pass_s = []
    while True:
        begun = time.perf_counter()
        records.extend(run_pass(passes[len(pass_s) % len(passes)], reference))
        pass_s.append(time.perf_counter() - begun)
        if len(pass_s) >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, decisions, undetermined = summary_counts(records)
    latencies = [r[1] for r in records]
    tail_s, tail_pct = tail(latencies)
    emit({"run": {"passes": len(pass_s), "pass_s": pass_s, "elapsed_s": elapsed,
                  "setup_samples_s": setups, "tail_percentile": tail_pct, "samples": len(latencies),
                  "decision_queries": decisions, "undetermined": undetermined}})
    emit({"queries": per_query(records)})
    failures = [(r[0], r[2]) for r in records if r[2] is not None]
    if failures:
        emit({"failures": failures[:20]})
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": attempted / elapsed,
        "query_s_p50": statistics.median(latencies),
        "query_s_tail": tail_s,
        "passed_frac": (attempted - failed) / attempted,
        "decided_frac": 1.0 - undetermined / decisions if decisions else 1.0,
        "peak_rss_mb": rss_mb,
    }
    return attempted, failed, {k: {"value": metrics[k], "unit": u}
                               for k, u in metric_units("end_to_end").items()}


def traced_run(args, passes, reference, tracer, out_dir):
    """Pass 0 traced, then the same inputs again untraced for the overhead.

    The traced run goes first so that its per-layer numbers describe inputs
    the process has not seen before.
    """
    from spans import summarize

    tracer.counts.clear()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = run_pass(passes[0], reference, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    plain = run_pass(passes[0], reference)
    plain_s = time.perf_counter() - start
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

    values = summarize(tracer.spans, tracer.counts, set(range(len(passes[0]))))
    values["trace.pass_s"] = plain_s
    values["trace.overhead_s"] = traced_s - plain_s
    busy = sum(r[1] for r in traced)
    emit({"trace": {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
                    "overhead_frac": (traced_s - plain_s) / plain_s, "spans": len(tracer.spans),
                    "query_busy_s": busy,
                    "shares_of_query_time": {
                        name: values.get(name, 0.0) / busy
                        for name in ("kernel.solve_ivp.s", "kernel.eigvalsh.s", "kernel.expm.s",
                                     "flows.simulate.s", "flows.simulate.self_s")}}})
    records = plain + traced
    failures = [(r[0], r[2]) for r in records if r[2] is not None]
    if failures:
        emit({"failures": failures[:20]})
    attempted, failed, _, _ = summary_counts(records)
    return attempted, failed, {k: {"value": float(values.get(k, 0.0)), "unit": u}
                               for k, u in metric_units("per_layer").items()}


def main(argv=None):
    args = parse_args(argv)
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    tracer = None
    try:
        if args.trace:
            sys.path.insert(0, HERE)
            import_library()
            from spans import Tracer

            tracer = Tracer()
            tracer.install()          # gallery calls made while building inputs are spans too
        try:
            passes, reference = setup(args.workload, args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_main = time.perf_counter() - _T0
        if args.setup_only:
            emit({"setup_s": setup_main})
            return 0
        if args.trace:
            attempted, failed, metrics = traced_run(args, passes, reference, tracer, out_dir)
        else:
            attempted, failed, metrics = timed_run(args, passes, reference, setup_main)
        import workloads

        emit({"machine": machine_info(), "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "inputs_sha256": workloads.fingerprint(passes)[0]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)

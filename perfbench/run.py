#!/usr/bin/env python3
"""Benchmark of the squ pipeline: four seeded workloads, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py compare BASE_DIR NEW_DIR

Each run builds the worker (`perfbench/Cargo.toml`, into $CARGO_TARGET_DIR,
default `.bench_build`), runs the workload's iterations each in a fresh
process, checks their outputs, prints every metric by name with its unit and
sample count, and ends with one JSON line:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}.
The full result, with host facts, is saved under --out for `compare`.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper", "audit", "synth", "serve"]

# Nominal seconds of one iteration at the commit that defined the
# benchmark. A run makes ceil(seconds / nominal) iterations, so its work
# (and its inputs) depend on --seconds, never on how fast the code is.
NOMINAL_ITERATION_S = {"paper": 1.7, "audit": 45.0, "synth": 1.4, "serve": 5.0}
# Set-up is sampled by set-up-only iterations run back to back before the
# measured ones, and reported as their median: at least 5 of them, and up
# to 15 while they have taken under 2 s, so that a set-up of a millisecond
# (process start alone) gets enough samples to be steady. (A measured
# iteration's own set-up starts right after the previous iteration's heavy
# process exits, which slows a millisecond-long set-up by half.)
SETUP_SAMPLES = (5, 15)
SETUP_BUDGET_S = 2.0
# Environment of a workload's worker processes, on top of run.py's own.
# `audit` runs with one glibc malloc arena. With the default arena per
# thread, its peak RSS read anywhere from 418 to 552 MB between cold runs of
# the same input: while the Translate/SDSS set runs beside the start of the
# Translate/Join-Order set, each thread's arena bloats by an amount that
# depends on how the two threads happen to interleave on the host. With one
# arena 39 of 40 cold audits read 417.4-417.9 MB (README.md, "Steadiness").
# Traced runs keep the default arenas: they attribute time as users run the
# program, and on one arena the traced audit's replays on `nproc` threads
# serialise on the allocator's lock and overrun the time limit.
WORKER_ENV = {"audit": {"MALLOC_ARENA_MAX": "1"}}
# A workload's iterations, after the build, must end within this many
# seconds; a stuck iteration is killed at that deadline and the run fails.
RUN_LIMIT_S = 170
_deadline = math.inf


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def jobs():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def target_dir():
    # cargo runs from ROOT, so a relative CARGO_TARGET_DIR is relative to it
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build the worker; return its path. Exits non-zero when it cannot."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cannot build the benchmark: {e}")
    if done.returncode != 0:
        fail("building the benchmark failed")
    exe = os.path.join(target_dir(), "release", "squ-perfbench")
    if not os.path.isfile(exe):
        fail(f"no worker binary at {exe}")
    return exe


def iterate(exe, workload, seed, *, trace=False, setup_only=False, trace_out=None, env=None):
    """One iteration in a fresh process, with `env` added to its
    environment; returns its parsed result."""
    work = os.path.join(target_dir(), "perfbench", "work")
    cmd = [exe, workload, "--seed", str(seed), "--jobs", str(jobs()), "--work-dir", work]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # set-up time starts here, so it includes starting the process
    cmd += ["--started", repr(time.time())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **(env or {})),
                              capture_output=True, text=True,
                              timeout=max(1.0, _deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: the run exceeded {RUN_LIMIT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{workload} seed {seed}: iteration exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} seed {seed}: iteration printed no result")
    return json.loads(lines[-1])


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return float("nan")
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def measure(exe, workload, seed, seconds):
    """The end-to-end metrics of one run (tracing off)."""
    n = max(1, math.ceil(seconds / NOMINAL_ITERATION_S[workload]))
    env = WORKER_ENV.get(workload)
    setups, started = [], time.time()
    while len(setups) < SETUP_SAMPLES[0] or (
            len(setups) < SETUP_SAMPLES[1] and time.time() - started < SETUP_BUDGET_S):
        setups.append(iterate(exe, workload, seed, setup_only=True, env=env)["setup_s"])
    runs = [iterate(exe, workload, seed, env=env) for _ in range(n)]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    # every iteration ran the same inputs in a fresh process: the outputs
    # must be the same
    for r in runs[1:]:
        attempted += 1
        if r["digest"] != runs[0]["digest"]:
            failed += 1
            failures.append(f"outputs differ between iterations: {r['digest']} != "
                            f"{runs[0]['digest']}")
    # per request on serve; a batch workload's user waits for the whole
    # cold run. A failed request misses any latency limit.
    lat = sorted(x if x is not None else math.inf for r in runs for x in r["latencies_ms"])
    lat_what = "requests" if workload == "serve" else "runs"
    # a 99th percentile needs at least 100 samples; a batch run's handful
    # supports no percentile above the median, so it reports the median
    p99 = quantile(lat, 0.99) if len(lat) >= 100 else statistics.median(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups), "set-ups"),
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s", n, "runs"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024 for r in runs),
                        "MB", n, "runs"),
        "p50_ms": (statistics.median(lat), "ms", len(lat), lat_what),
        # a refused or failed request reads as the run's time limit
        "p99_ms": (p99 if math.isfinite(p99) else RUN_LIMIT_S * 1e3,
                   "ms", len(lat), lat_what),
    }
    facts = {}
    for r in runs:
        for k, v in r["facts"].items():
            facts.setdefault(k, []).append(v)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:8],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "seeds": [r["seed"] for r in runs],
        "facts": {k: statistics.median(v) for k, v in facts.items()},
        "iterations": [{k: r[k] for k in ("seed", "setup_s", "wall_s", "peak_rss_kb",
                                          "attempted", "failed", "digest")}
                       for r in runs],
    }


def measure_traced(exe, workload, seed, out_dir):
    """Per-layer metrics: an untraced and a traced iteration of one input."""
    plain = iterate(exe, workload, seed)
    stamp = int(time.time() * 1000)
    trace_file = os.path.join(out_dir, f"trace-{workload}-seed{seed}-{stamp}.jsonl")
    traced = iterate(exe, workload, seed, trace=True, trace_out=trace_file)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return {
        "layers": layers,
        "counts": traced["counts"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "failures": traced["failures"],
        "replays": traced["replays"],
        "trace_file": os.path.relpath(trace_file, ROOT),
        "wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
    }


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # not a git checkout: name the sources by their content
    h = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()


def host_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               timeout=10).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"nproc": jobs(), "cpu": cpu, "rustc": rustc, "commit": commit(),
            "python": platform.python_version()}


def fmt(v):
    return f"{v:.6g}"


def run_one(exe, contract, workload, seed, seconds, trace, out_dir):
    global _deadline
    _deadline = time.time() + RUN_LIMIT_S
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "jobs": jobs(), "worker_env": {} if trace else WORKER_ENV.get(workload, {}),
              "time": time.time()}
    if trace:
        got = measure_traced(exe, workload, seed, out_dir)
        names = [m["name"] for m in contract["per_layer"]]
        missing = [n for n in names if n not in got["layers"]]
        if missing:
            fail(f"{workload}: no value for per-layer metrics {missing}")
        metrics = {n: {"value": got["layers"][n], "unit": units[n]} for n in names}
        print(f"{workload}: traced run, seed {seed} (untraced {fmt(got['wall_s']['untraced'])} s,"
              f" traced {fmt(got['wall_s']['traced'])} s, spans in {got['trace_file']})")
        for n in names:
            print(f"  {n:<32} {fmt(metrics[n]['value']):>14} {units[n]}")
        print("  replays, by layer (self time, calls):")
        for k, v in got["replays"].items():
            print(f"    {k:<52} {fmt(v['ms']):>12} ms {v['calls']:>8}")
        record.update(got)
    else:
        got = measure(exe, workload, seed, seconds)
        names = [m["name"] for m in contract["end_to_end"]]
        metrics = {n: {"value": got["metrics"][n][0], "unit": units[n]} for n in names}
        print(f"{workload}: seed {seed}, {len(got['seeds'])} iteration(s) in fresh processes")
        for n in names:
            value, unit, count, what = got["metrics"][n]
            print(f"  {n:<12} {fmt(value):>12} {unit:<3} (n={count} {what})")
        print(f"  {'fail_ratio':<12} {fmt(got['fail_ratio']):>12}     "
              f"({got['failed']} of {got['attempted']} operations failed)")
        for k, v in sorted(got["facts"].items()):
            print(f"  {k:<12} {fmt(v):>12}     (median over iterations)")
        record.update(got)
    for f in got["failures"]:
        print(f"  FAILED: {f}")
    record["correct"] = got["failed"] == 0
    record["metrics"] = metrics
    record["host"] = host_facts()
    os.makedirs(out_dir, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{int(time.time() * 1000)}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    return record


def main_run(args):
    contract = load_contract()
    out_dir = os.path.abspath(args.out or os.path.join(target_dir(), "perfbench", "results"))
    exe = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_one(exe, contract, w, args.seed, args.seconds, bool(args.trace), out_dir)
               for w in workloads]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))


# ---- compare --------------------------------------------------------------


def load_records(path):
    recs = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                recs.append(json.load(f))
    return recs


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def main_compare(args):
    contract = load_contract()
    base, new = load_records(args.base), load_records(args.new)
    bad = False
    print("workload  metric        base median [q1, q3]            new median [q1, q3]"
          "             pairs won  bound  verdict")
    for w in WORKLOADS:
        b_runs = [r for r in base if r["workload"] == w and not r["trace"]]
        n_runs = [r for r in new if r["workload"] == w and not r["trace"]]
        if not b_runs or not n_runs:
            continue
        for m in contract["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            b_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in b_runs}
            pairs = [(b_by_seed[r["seed"]], r["metrics"][name]["value"])
                     for r in n_runs if r["seed"] in b_by_seed]
            wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse = (nm - bm) / bm if lower else (bm - nm) / bm
            all_better = all((n < min(bv)) if lower else (n > max(bv)) for n in nv)
            if name != "setup_s" and max(spread(bv), spread(nv)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict, bad = "WORSE", True
            elif (pairs and wins >= 0.9 * len(pairs)
                  and abs(nm - bm) > spread(bv) * bm):
                verdict = "better"
            else:
                verdict = "same"

            def q(v):
                if len(v) < 2:
                    return f"{fmt(v[0])} [-, -]"
                q1, _, q3 = statistics.quantiles(v, n=4)
                return f"{fmt(statistics.median(v))} [{fmt(q1)}, {fmt(q3)}]"

            print(f"{w:<9} {name:<12}  {q(bv):<31} {q(nv):<31} {wins:>3}/{len(pairs):<5}"
                  f"  {bound:<5}  {verdict}")
    # deterministic per-layer counts must repeat exactly
    b_traces = {(r["workload"], r["seed"]): r for r in base if r["trace"]}
    for r in new:
        if not r["trace"] or (r["workload"], r["seed"]) not in b_traces:
            continue
        b = b_traces[(r["workload"], r["seed"])]["counts"]
        changed = sorted(k for k in set(b) | set(r["counts"]) if b.get(k) != r["counts"].get(k))
        for k in changed:
            print(f"COUNT CHANGED {r['workload']} seed {r['seed']}: {k} "
                  f"{b.get(k)} -> {r['counts'].get(k)}")
        bad = bad or bool(changed)
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    for h in sorted(hosts):
        print(f"host: {h}")
    sys.exit(1 if bad else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        main_compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="directory for result files")
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    main_run(args)


if __name__ == "__main__":
    main()

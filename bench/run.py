"""Benchmark of dissinet, run from the root of a source checkout.

    python3 bench/run.py --workload demo-n100 --seed 0 --seconds 5 --trace 0

Imports dissinet from ./src, sets up (imports, inputs from the seed, one
tiny warm-up pipeline; set-up is repeated and its median reported), then
runs whole rounds of the workload: at least the workload's least number of
rounds, and more while a round of median length still ends within
``--seconds`` of the first round's start.  Every
round's files are checked by bench/check_outputs.py.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(medians over rounds); with ``--trace 1`` each round is one untraced and
one traced pass, and the metrics are the per-layer ones of the traced pass.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SETUP_REPEATS = 5
OUT_ROOT = ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="dissinet benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program(root):
    """Import dissinet from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dissinet", "__init__.py")):
        sys.exit(f"error: no dissinet sources under {src}; "
                 "run from the root of a dissinet checkout")
    sys.path.insert(0, src)
    import dissinet

    if os.path.dirname(os.path.dirname(os.path.abspath(dissinet.__file__))) != src:
        sys.exit(f"error: dissinet was imported from {dissinet.__file__}")


def timed_pass(workload, out_dir, tracer=None):
    """One compute + write pass, optionally traced; returns the times and
    the failures the program reported itself."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        result = workload.compute()
        t1 = time.perf_counter()
        workload.write(result, out_dir)
        t2 = time.perf_counter()
    return {"compute_s": t1 - t0, "write_s": t2 - t1, "wall_s": t2 - t0,
            "program_failed": workload.program_failures(result)}


def output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    import_program(root)
    import workloads  # bench/ is on sys.path as the script's directory
    from tracer import Tracer

    imported = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_root = os.path.join(root, OUT_ROOT, args.workload)
    shutil.rmtree(out_root, ignore_errors=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        workloads.warm_up(os.path.join(out_root, "warmup"))
        setups.append(time.perf_counter() - t0)
    setup_s = (imported - PROCESS_START) + statistics.median(setups)

    passes = []      # (out_dir, timings)
    tracers = []
    round_s = []
    min_rounds = 1 if args.trace else workload.MIN_ROUNDS
    start = time.perf_counter()
    while True:
        k = len(passes)
        round_start = time.perf_counter()
        if args.trace:
            untraced = os.path.join(out_root, f"round{k}")
            passes.append((untraced, timed_pass(workload, untraced)))
            traced = os.path.join(out_root, f"round{k + 1}")
            tracers.append(Tracer())
            passes.append((traced, timed_pass(workload, traced, tracers[-1])))
        else:
            out_dir = os.path.join(out_root, f"round{k}")
            passes.append((out_dir, timed_pass(workload, out_dir)))
        now = time.perf_counter()
        round_s.append(now - round_start)
        # Start another round only if a typical one still fits in the run.
        if (len(round_s) >= min_rounds
                and now - start + statistics.median(round_s) > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = workload.operations()
    attempted = failed = 0
    correct = True
    for out_dir, timings in passes:
        findings = workload.check(out_dir)
        bad = set(findings) | set(timings["program_failed"])
        unknown = bad - set(ops)
        if unknown:
            correct = False
            print(f"unexpected findings: {sorted(unknown)}", file=sys.stderr)
        for key in sorted(bad):
            print(f"failed {key}: {findings.get(key, ['program failure'])}",
                  file=sys.stderr)
        attempted += len(ops)
        failed += len(bad & set(ops))

    if args.trace:
        traced_dir, traced_times = passes[-1]
        # The untraced pass of the same round is the overhead's reference.
        untraced_times = passes[-2][1]
        metrics = tracers[-1].metrics(traced_times["write_s"],
                                      output_bytes(traced_dir))
        metrics["trace.overhead_pct"] = (
            100.0 * tracers[-1].overhead_s() / untraced_times["wall_s"], "%")
        tracers[-1].dump(os.path.join(out_root, "trace.jsonl"))
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        for name in ("compute_s", "write_s", "wall_s"):
            metrics[name] = (statistics.median(t[name] for _, t in passes), "s")
        for k, (_, t) in enumerate(passes):
            print(f"round {k}: compute {t['compute_s']:.3f} s, "
                  f"write {t['write_s']:.3f} s", file=sys.stderr)
    for out_dir, _ in passes[:-1]:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

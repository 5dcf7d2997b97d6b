"""Two sets of benchmark runs of the same code, one set after the other.

    python3 bench/compare.py

Runs the command of BENCHMARK.json from the repository root for every
workload and seeds 0-9, twice over, and prints for each end-to-end metric,
per set, its median and quartiles, the spread (quartile distance over
median) and the shift of the second set's median from the first's, each
against the metric's bound.  The spread of ``setup_s`` is printed but not
held to its bound: set-up is under a second, and only its shift counts.
The share of failed operations must be the same in both sets.  Raw results
go to .bench_out/compare.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = range(10)


def run_once(config, workload, seed, trace):
    cmd = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def report(config, runs):
    ok = True
    for workload in sorted({w for s in runs for w in s}):
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in s[workload])
                  / sum(r["attempted"] for r in s[workload]) for s in runs]
        same = len(set(shares)) == 1
        ok &= same and all(r["correct"] for s in runs for r in s[workload])
        print(f"  failed share per set: {shares}  {'same' if same else 'DIFFER'}")
        print(f"  run time per set (s): "
              + ", ".join(f"{statistics.median(r['elapsed_s'] for r in s[workload]):.1f} median"
                          f" / {max(r['elapsed_s'] for r in s[workload]):.1f} max"
                          for s in runs))
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:12s} bound {bound:.2f}"
            medians = []
            for k, s in enumerate(runs):
                values = [r["metrics"][name]["value"] for r in s[workload]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = "" if name == "setup_s" or spread <= bound else " OVER"
                ok &= not flag
                line += (f" | set{k + 1} {med:.4g} [{q1:.4g}, {q3:.4g}]"
                         f" spread {spread:.3f}{flag}")
            shift = medians[1] / medians[0] - 1.0
            flag = " OVER" if abs(shift) > bound else ""
            ok &= not flag
            print(line + f" | shift {shift:+.3f}{flag}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    workloads = [w["name"] for w in config["workloads"]]
    runs = []
    for k in range(SETS):
        runs.append({})
        for workload in workloads:
            runs[k][workload] = []
            for seed in SEEDS:
                result = run_once(config, workload, seed, 0)
                runs[k][workload].append(result)
                print(f"set {k + 1} {workload} seed {seed}: "
                      f"{json.dumps(result)}", file=sys.stderr, flush=True)
    out = os.path.join(ROOT, ".bench_out", "compare.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"seeds": list(SEEDS), "sets": runs}, fh, indent=1)
    ok = report(config, runs)
    print("\nall spreads and shifts within bounds" if ok
          else "\nsome spread or shift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

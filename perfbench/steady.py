"""Steadiness of the benchmark: repeat runs and report their spread.

    python3 perfbench/steady.py --runs 10 [--workload duality ...]
                                [--baseline perfbench/out/steady-duality.json ...]

Runs each workload --runs times, one run at a time, and prints for every
metric the median, the quartiles and the spread: the distance between the
quartiles as a share of the median. Against the bounds in BENCHMARK.json a
spread is "steady" up to a third of its bound and "over bound" beyond it.
The share of failed operations must be the same in every run. The exit code
is 1 when a spread is over its bound, a share differs or a run is incorrect.
Every run uses seed 1, since no workload's inputs depend on the seed yet.
With --baseline, the medians are also compared with an earlier set of runs
of the same workload: a median more than its bound worse than the
baseline's is a regression. Each set is written to
perfbench/out/steady-<workload>.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _run(workload, seconds):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def _summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(q2) if q2 else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--baseline", type=pathlib.Path, action="append", default=[])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    baselines = {}
    for path in args.baseline:
        doc = json.loads(path.read_text())
        baselines[doc["workload"]] = doc
    OUT.mkdir(exist_ok=True)

    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            result, elapsed = _run(workload, bench["run_seconds"])
            runs.append({"elapsed_s": elapsed, **result})
            print(f"{workload} run {i + 1}: {elapsed:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        names = sorted(set().union(*(r["metrics"] for r in runs)))
        summary = {name: _summarize([r["metrics"][name]["value"] for r in runs
                                    if name in r["metrics"]]) for name in names}
        doc = {"workload": workload, "runs": runs, "failed_shares": shares, "summary": summary}
        (OUT / f"steady-{workload}.json").write_text(json.dumps(doc, indent=1))

        print(f"\n{workload}: {args.runs} runs, failed share {shares}, "
              f"all correct {all(r['correct'] for r in runs)}, "
              f"run time {statistics.median(r['elapsed_s'] for r in runs):.1f} s median")
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            steady = False
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  verdict")
        for name, s in summary.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                spread = s["spread"] if s["spread"] is not None else float("inf")
                verdict = ("steady" if spread <= bound / 3.0 else
                           "within bound" if spread <= bound else "OVER BOUND")
                steady = steady and spread <= bound
                base = baselines.get(workload, {}).get("summary", {}).get(name)
                if base is not None:
                    sign = 1.0 if better[name] == "lower" else -1.0
                    change = sign * (s["median"] - base["median"]) / abs(base["median"])
                    regressed = change > bound
                    verdict += f", {100 * change:+.1f}% vs baseline"
                    verdict += " REGRESSED" if regressed else ""
                    steady = steady and not regressed
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:32s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{spread:>8s} {'' if bound is None else bound:>6}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

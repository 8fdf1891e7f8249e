"""Benchmark for gaugekit: time to a certified worst-case bound.

Run one workload (the last line of standard output is a JSON result):

    python3 perfbench/run.py --workload duality --seed 1 --seconds 8 --trace 0

Run every workload once and print a table:

    python3 perfbench/run.py

One process prices one instance at a time, with the BLAS pool held to one
thread. Each run repeats whole rounds of its workload's instances until
--seconds have passed. With --trace 0 it reports the end-to-end metrics.
With --trace 1 it runs one untraced warm-up round, then untraced and traced
rounds in pairs, and reports the per-layer metrics of the traced rounds. A
traced round wraps each layer's public functions.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("duality", "envelope", "facility", "walk")
SETUP_REPEATS = 9
TAIL_BEYOND = 10
TAIL_MIN_INSTANCES = 40


def _import_program():
    """Put the checkout's own sources first on the path and import them."""
    src = ROOT / "src"
    if not (src / "gaugekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gaugekit sources under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def _workdir():
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter until it has imported
    gaugekit and built the workload's inputs; the median of a few starts."""
    times = []
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child exited {code} without getting ready")
        times.append(elapsed)
    return statistics.median(times)


class Rounds:
    """Outcome of whole rounds over one workload's instances."""

    def __init__(self):
        self.walls = []
        self.instance_times = []
        self.by_instance = {}
        self.attempted = 0
        self.failed = 0
        self.breaches = []
        self.failures = {}

    def run(self, instances, seconds=0.0):
        start = time.perf_counter()
        while True:
            wall = 0.0
            for inst in instances:
                t0 = time.perf_counter()
                try:
                    out, error = inst.run(), None
                except Exception:  # a raised error is a failed operation
                    out, error = None, traceback.format_exc(limit=3)
                elapsed = time.perf_counter() - t0
                wall += elapsed
                self.instance_times.append(elapsed)
                self.by_instance.setdefault(inst.name, []).append(elapsed)
                problems = [("failure", error)] if error else inst.check(out)
                self.attempted += 1
                if problems:
                    self.failed += 1
                    for kind, text in problems:
                        if kind == "breach":
                            self.breaches.append(f"{inst.name}: {text}")
                        else:
                            self.failures[inst.name] = text
            self.walls.append(wall)
            if time.perf_counter() - start >= seconds:
                return self


def _tail(times):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    instances above it, or None with fewer than TAIL_MIN_INSTANCES."""
    if len(times) < TAIL_MIN_INSTANCES:
        return None
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def _traced(name, instances, seconds):
    """Per-layer metrics. After one untraced warm-up round, an untraced and a
    traced round alternate, in pairs, until `seconds` have passed. The
    overhead is the median difference within a pair."""
    rounds = Rounds().run(instances)
    spans = tracer.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(rounds.run(instances).walls[-1])
        spans.install()
        try:
            traced.append(rounds.run(instances).walls[-1])
        finally:
            spans.uninstall()
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{name}.npz")
    metrics = spans.per_layer(len(traced))
    metrics["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t - u for t, u in zip(traced, untraced)), "unit": "s"}
    return metrics, rounds


def run_workload(name, seed, seconds, trace):
    program = _import_program()
    workdir = _workdir()
    try:
        instances = program.WORKLOADS[name](seed, workdir)
        if trace:
            metrics, result = _traced(name, instances, seconds)
        else:
            setup_s = _measure_setup(name, seed)
            result = Rounds().run(instances, seconds)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(result.walls), "unit": "s"},
                "instance_p50_s": {"value": statistics.median(result.instance_times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(result.walls), "instances_per_round": len(instances),
        "round_walls_s": result.walls, "tail": _tail(result.instance_times),
        "instance_s": {key: statistics.median(times) for key, times in result.by_instance.items()},
        "failures": result.failures, "breaches": result.breaches,
    }
    for instance, text in result.failures.items():
        print(f"perfbench {name}: failed {instance}: {text}", file=sys.stderr)
    for text in result.breaches:
        print(f"perfbench {name}: wrong output {text}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(dict(report, metrics=metrics), indent=1))
    return {
        "correct": not result.breaches,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, one after another; prints a table."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        rows.append((name, result, report))
    for name, result, report in rows:
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}, "
              f"{report['rounds']} round(s) of {report['instances_per_round']} instances")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
        if report["tail"] and not args.trace:
            pct, value = report["tail"]
            print(f"  {'instance_tail_s':32s} {value:.6g} s  (p{pct:.1f}, "
                  f"{TAIL_BEYOND} instances beyond)")
    return all(result["correct"] for _, result, _ in rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="recorded in the report; no workload's inputs depend on it yet")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        program = _import_program()
        workdir = _workdir()
        try:
            program.WORKLOADS[args.workload](args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return 0 if run_all(args) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

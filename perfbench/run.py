"""Benchmark for nsg: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 38 --trace 0

Run from the root of a checkout holding src/nsg.  Every iteration runs in
a fresh interpreter (perfbench/worker.py), so the lru caches start cold as
they do for a user; iterations repeat while the measuring time allows and
the metrics are medians over them.  With --trace 0 the last stdout line
reports the end-to-end metrics, as times at the yardstick's reference
speed; with --trace 1 it reports the per-layer metrics of traced
iterations, next to an untraced one for the overhead.
Earlier stdout lines carry provenance.  The full result, and the spans of
the traced run, are written under .perfbench_out/ in the checkout.
See perfbench/NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from inputs import WORKLOADS, gluing_parts, make_inputs  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
GLUING_PARTS = 4
DEADLINE_S = 170  # every run must end within 180 s


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when it is no git work tree."""
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=30,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256(src: str) -> str:
    """Digest of the nsg sources, which identifies the code in a checkout without git."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


class Runner:
    """Spawns iterations of one workload and keeps what every run reports."""

    def __init__(self, root: str, workload: str, inputs: dict, tmp: str, started: float):
        self.root = root
        self.workload = workload
        self.inputs = inputs
        self.tmp = tmp
        self.started = started
        self.count = 0
        self.loadavg: list[list[float]] = []
        self.out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)

    def iteration(self, trace: bool = False, inputs: dict | None = None, kind: str | None = None,
                  calibrate: bool = False) -> dict:
        """Run one iteration in a fresh interpreter and return its result."""
        self.count += 1
        work = os.path.join(self.tmp, f"iteration-{self.count}")
        spool = os.path.join(work, "spool")
        os.makedirs(spool)
        kind = kind or self.workload
        request = {
            "workload": kind, "trace": trace, "calibrate": calibrate, "tmp": work, "spool": spool,
            "inputs": self.inputs if inputs is None else inputs,
            "spans_out": os.path.join(self.out_dir, f"spans_{self.workload}.json"),
        }
        request_path = os.path.join(work, "request.json")
        result_path = os.path.join(work, "result.json")
        with open(request_path, "w", encoding="utf-8") as handle:
            json.dump(request, handle)
        self.loadavg.append(list(os.getloadavg()))
        remaining = DEADLINE_S - (perf_counter() - self.started)
        spawned = perf_counter()
        child = subprocess.Popen([sys.executable, WORKER, request_path, result_path],
                                 cwd=self.root, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            code = child.wait(timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # pool workers share the session; none may outlive the iteration
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if code is None:
            raise RuntimeError(f"{kind} iteration passed the {DEADLINE_S} s deadline")
        if code != 0:
            raise RuntimeError(f"{kind} iteration exited with code {code}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup"] = result["ready"] - spawned
        shutil.rmtree(work)
        return result

    def repeat(self, seconds: int, one_round) -> None:
        """Run rounds until the next one would overrun the measuring time."""
        begin = perf_counter()
        while True:
            before = perf_counter()
            one_round()
            if perf_counter() - begin + (perf_counter() - before) > seconds:
                break


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(results: list[dict]) -> float:
    return statistics.median(r["items"] / r["wall"] for r in results)


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list[dict], list[str]]:
    """Untraced iterations, each after a set-up probe; metrics are medians.

    Each item's latency is its median over the iterations that ran it.  A
    census or ladder iteration runs every item.  A gluing iteration runs
    one of GLUING_PARTS parts of near-equal cost in turn, so that a run
    holds several short iterations instead of one or two long ones.  Every
    time is divided by the slowdown the yardstick measured during its
    iteration (worker.Yardstick), the set-up times too, so the metrics read
    as at the reference speed and a drift of the host's speed cancels.
    The worker scales each latency by the slices next to its item.
    """
    results, setups = [], []
    samples: dict[int, list[float]] = {}
    parts = gluing_parts(runner.inputs["items"], GLUING_PARTS) if runner.workload == "gluing" else None

    def one_iteration():
        probe = runner.iteration(kind="setup", inputs={})
        if parts:
            ids = parts[len(results) % len(parts)]
            result = runner.iteration(inputs=part_inputs(runner.inputs, ids), calibrate=True)
        else:
            result = runner.iteration(calibrate=True)
            ids = range(len(result["latencies"]))
        results.append(result)
        slowdown = result["slowdown"]
        setups.extend([probe["setup"] / slowdown, result["setup"] / slowdown])
        for i, latency in zip(ids, result["latencies"]):
            samples.setdefault(i, []).append(latency)

    runner.repeat(seconds, one_iteration)
    latencies = [statistics.median(values) for values in samples.values()]
    metrics = {
        "items_per_s": (statistics.median(r["items"] * r["slowdown"] / r["wall"] for r in results), "1/s"),
        "item_p50_ms": (1000 * quantile(latencies, 50), "ms"),
        "item_p90_ms": (1000 * quantile(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, results, []


def part_inputs(inputs: dict, ids: list[int]) -> dict:
    return dict(inputs, items=[inputs["items"][i] for i in ids])


def unit_of(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    if name in COUNTS:
        return "count"
    return "ratio" if name.startswith("trace.") or name.endswith("_efficiency") else "s"


COUNTS = (
    "presentations.guard_fibers", "presentations.factorizations_at_betti",
    "presentations.scan_candidates", "presentations.betti_elements",
    "presentations.relations", "gluing.splits_found", "gluing.ci_count",
    "census.semigroups", "census.ndjson_bytes", "cli.output_bytes",
)


def combine(parts: list[dict]) -> dict:
    """Per-layer metrics of one workload pass made of several iterations.

    Times and counts add up; coverage is weighted by each part's wall.
    """
    total = {name: sum(r["layers"][name] for r in parts) for name in parts[0]["layers"]}
    wall = sum(r["wall"] for r in parts)
    total["trace.coverage"] = sum(r["layers"]["trace.coverage"] * r["wall"] for r in parts) / wall
    return total


def per_layer(runner: Runner, seconds: int) -> tuple[dict, list[dict], list[str]]:
    """Rounds of one untraced iteration and traced passes over the workload.

    - census: one traced sweep at --jobs 1 and one at --jobs 2.  The
      second gives the fan-out's efficiency; its counts and NDJSON bytes
      must equal those at one job.
    - gluing: one traced iteration per part, as the untraced runs split
      the sample; the per-layer metrics add up the parts.
    - large-single: two traced ladders.
    The untraced iteration runs the same input as the first traced one,
    which gives trace.overhead.  Rounds repeat while the measuring time
    allows; a round that ran the same input twice must repeat every count.
    """
    plain, passes, fanout, overhead, checked = [], [], [], [], []
    if runner.workload == "gluing":
        parts = [part_inputs(runner.inputs, ids) for ids in gluing_parts(runner.inputs["items"], GLUING_PARTS)]
    else:
        parts = [runner.inputs]

    def one_round():
        plain.append(runner.iteration(inputs=parts[0]))
        traced = [runner.iteration(trace=True, inputs=part) for part in parts]
        overhead.append(traced[0]["wall"] / plain[-1]["wall"])
        passes.append(combine(traced))
        checked.extend(traced)
        if runner.workload == "census":
            fanout.append(runner.iteration(trace=True, inputs=dict(runner.inputs, jobs=2)))
        elif runner.workload == "large-single":
            checked.append(runner.iteration(trace=True))
            passes.append(combine(checked[-1:]))

    runner.repeat(seconds, one_round)
    problems = []
    for name in COUNTS:
        values = {p[name] for p in passes} | {r["layers"][name] for r in fanout}
        if len(values) != 1:
            problems.append(f"count {name} does not repeat: {sorted(values)}")
    metrics = {}
    for name, value in passes[0].items():
        if name not in COUNTS:  # counts repeat exactly, times are medians
            value = statistics.median(p[name] for p in passes)
        metrics[name] = (value, unit_of(name))
    metrics["trace.overhead"] = (statistics.median(overhead), "ratio")
    efficiency = rate(fanout) / (2 * rate(checked)) if fanout else 0.0
    metrics["census.parallel_efficiency"] = (efficiency, "ratio")
    return metrics, plain + checked + fanout, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src", "nsg")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"error: no nsg sources under {src}; run from the root of an nsg checkout",
              file=sys.stderr)
        return 2

    tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        inputs = make_inputs(args.workload, args.seed)
        runner = Runner(root, args.workload, inputs, tmp, started)
        measure = per_layer if args.trace else end_to_end
        metrics, results, problems = measure(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    attempted = sum(r["items"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]] + problems
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(src),
        "loadavg_before_each_iteration": runner.loadavg,
        "iteration_items_per_s": [r["items"] / r["wall"] for r in results],
        "iteration_slowdown": [r["slowdown"] for r in results],
        "failed_ratio": failed / attempted if attempted else None,
        "errors": errors[:10],
        "run_wall_s": perf_counter() - started,
    }
    print(json.dumps({"provenance": provenance}))
    for message in errors[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_name = f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"
    with open(os.path.join(runner.out_dir, out_name), "w", encoding="utf-8") as handle:
        json.dump({"provenance": provenance, "result": line}, handle, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

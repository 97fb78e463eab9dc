"""One iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py REQUEST.json RESULT.json

The request names the workload, its inputs, whether to trace, and scratch
directories inside the checkout.  The worker imports nsg from the
checkout's src/ first and notes when that is done, which is what setup_s
measures.  It then times the workload's calls into nsg, checks every
output against independent values, and writes timings, checks and (when
traced) spans and per-layer metrics to RESULT.json.  When asked to
calibrate, it also times short slices of the yardstick between items.
"""

import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import nsg  # noqa: E402
import nsg.cli  # noqa: E402

READY = perf_counter()

import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import inputs as oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_ERRORS = 5
YARDSTICK_EVERY_S = 0.1
# one yardstick slice on the 2-vCPU tuning machine, Python 3.11: it took
# 2.6 ms in the host's fast phases and 5.0 to 5.5 ms in its slow ones
YARDSTICK_REFERENCE_S = 0.005


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Outcome:
    """Items attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.items = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def _factorizations(gens: tuple, n: int) -> list[tuple]:
    if len(gens) == 1:
        return [(n // gens[0],)] if n % gens[0] == 0 else []
    out = []
    for k in range(n // gens[-1] + 1):
        for f in _factorizations(gens[:-1], n - k * gens[-1]):
            out.append(f + (k,))
    return out


def yardstick_work() -> int:
    """Fixed pure-Python work shaped like nsg's inner loops: factorization
    tuples gathered into sets, and a heap-driven Apery table."""
    fibers = {n: set(_factorizations((7, 11, 13, 17), n)) for n in range(200, 208)}
    return sum(map(len, fibers.values())) + sum(oracle.apery((211, 307, 401)))


class Yardstick:
    """The host's speed, sampled between items while a workload runs.

    On a shared host the speed of the same code drifts by up to 2x, in
    phases from under a second to over a minute long.  A
    slice of fixed work every YARDSTICK_EVERY_S, outside the timed calls,
    tracks that drift.  local() is the slowdown around one item: the
    mean time of the slices next to it over the reference slice time.
    Dividing the item's time by it gives its time at the reference speed.
    The yardstick does not use nsg, so a change to the
    program cannot move it.
    """

    def __init__(self, on: bool):
        self.on = on
        self.slices: list[float] = []
        self.ends: list[float] = []
        self.due = 0.0

    def tick(self) -> None:
        """Run one slice if the last one ended YARDSTICK_EVERY_S ago."""
        if self.on and perf_counter() >= self.due:
            # no collection inside a slice, whose cost would grow with the
            # program's heap and tie the yardstick to the program
            gc.disable()
            start = perf_counter()
            yardstick_work()
            end = perf_counter()
            gc.enable()
            self.slices.append(end - start)
            self.ends.append(end)
            self.due = end + YARDSTICK_EVERY_S

    def spent(self) -> float:
        return sum(self.slices)

    def local(self, start: float, end: float) -> float:
        """Slowdown around one item: the slices just before and just after it.

        The host's phases can be shorter than an iteration, so an item's
        latency is scaled by the speed measured next to it.
        """
        after = bisect.bisect_left(self.ends, end)
        near = self.slices[max(after - 1, 0):after + 1]
        return statistics.fmean(near) / YARDSTICK_REFERENCE_S if near else 1.0



def run_cli(argv: list[str], out_path: str) -> tuple[int, float, float]:
    """nsg.cli.run with stdout sent to a file, as a shell user would."""
    with open(out_path, "w", encoding="utf-8") as handle, redirect_stdout(handle):
        start = perf_counter()
        code = nsg.cli.run(argv)
        end = perf_counter()
    return code, start, end


def tree_errors(node: dict) -> list[str]:
    """F identity and generator identity at every node of a CI tree record."""
    gens = tuple(node["generators"])
    if node["leaf"]:
        return [] if gens == (1,) else [f"leaf {gens} is not N"]
    left, right = node["left"], node["right"]
    lam, mu, d = node["lambda"], node["mu"], node["extra_degree"]
    errors = tree_errors(left) + tree_errors(right)
    scaled = sorted([mu * a for a in left["generators"]] + [lam * b for b in right["generators"]])
    if tuple(scaled) != gens:
        errors.append(f"{gens} is not {mu}*{left['generators']} + {lam}*{right['generators']}")
    f_left = oracle.frobenius(left["generators"])
    f_right = oracle.frobenius(right["generators"])
    if oracle.frobenius(gens) != d + mu * f_left + lam * f_right:
        errors.append(f"F identity fails at {gens}")
    if d % (lam * mu) or d < lam * mu:
        errors.append(f"extra degree {d} at {gens} is no multiple >= {lam * mu}")
    return errors


# ----------------------------------------------------------------- census


def census(request: dict, tracer: Tracer | None, outcome: Outcome, yard: Yardstick) -> dict:
    spec, tmp = request["inputs"], request["tmp"]
    genus_bound, jobs = spec["max_genus"], spec["jobs"]
    ndjson = os.path.join(tmp, "census.ndjson")
    argv = ["verify", "--max-genus", str(genus_bound), "--format", "json",
            "--out", ndjson, "--jobs", str(jobs)]
    if tracer:
        tracer.active = True
    yard.tick()
    # slices run after record_for calls inside verify; they are not its time
    before = yard.spent()
    code, start, _ = run_cli(argv, os.path.join(tmp, "verify.out"))
    read_start = perf_counter()
    records = list(nsg.read_records(ndjson))
    end = perf_counter()
    wall = end - start - (yard.spent() - before)
    yard.tick()
    if tracer:
        tracer.active = False
        tracer.span("census.read_records", read_start, end)
    rss = peak_rss_mb()

    outcome.items = len(records)
    with open(ndjson, "rb") as handle:
        raw = handle.read()
    with open(os.path.join(tmp, "verify.out"), encoding="utf-8") as handle:
        summary_text = handle.read()
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    else:
        summary = json.loads(summary_text)
        expected = {
            "bound": genus_bound,
            "total": sum(oracle.A007323),
            "ci_count": oracle.CENSUS_CI_COUNT,
            "exceptions_found": [list(g) for g in oracle.CENSUS_STAR_FAILURES],
            "counterexamples": [],
            "per_genus": list(oracle.A007323),
        }
        for key, want in expected.items():
            if summary.get(key) != want:
                problems.append(f"summary {key} = {summary.get(key)}, expected {want}")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != oracle.CENSUS_NDJSON_SHA256:
        problems.append(f"NDJSON sha256 {digest} differs from the pinned one")
    lines = raw.decode("utf-8").splitlines()
    if len(lines) != len(records):
        problems.append(f"{len(lines)} lines but {len(records)} records read back")
    for record, line in zip(records, lines):
        if json.dumps(nsg.record_to_doc(record)) != line:
            outcome.fail(f"record {record.generators} does not round-trip")
            continue
        gens = record.generators
        tag = record.exception.value
        if gens == (1,):
            want_tag = "undefined"
        elif not record.is_ci:
            want_tag = "not_ci"
        elif gens in oracle.CENSUS_STAR_FAILURES:
            want_tag = {(3, 4): "three_four", (3, 5): "three_five"}.get(gens, "two_generated_with_two")
        else:
            want_tag = "satisfies"
        want_verdict = {"undefined": "undefined", "not_ci": "undefined", "satisfies": "satisfied"}.get(want_tag, "failed")
        if (record.frobenius, record.genus) != (oracle.frobenius(gens), oracle.genus(gens)) \
                or record.embedding_dim != len(gens) or tag != want_tag \
                or record.star.verdict.value != want_verdict:
            outcome.fail(f"record {gens} has wrong invariants or tags")
    if problems:
        outcome.fail("; ".join(problems), count=outcome.items - outcome.failed)

    result = {"wall": wall, "rss_mb": rss, "ndjson_bytes": len(raw),
              "output_bytes": len(summary_text.encode("utf-8")), "semigroups": len(records)}
    if request["trace"]:
        # the tree walk alone, through the public iterator, untraced and
        # outside the traced wall
        walk_start = perf_counter()
        walked = sum(1 for _ in nsg.enumerate_semigroups(genus_bound))
        walk_end = perf_counter()
        result["walk_s"] = walk_end - walk_start
        if walked != len(records):
            outcome.fail(f"walk yields {walked} semigroups, census recorded {len(records)}")
    return result


# ----------------------------------------------------------------- gluing


def gluing(request: dict, tracer: Tracer | None, outcome: Outcome, yard: Yardstick) -> dict:
    spec = request["inputs"]
    donors = {tuple(g): nsg.make_semigroup(list(g)) for g in spec["donors"]}
    timed = []  # (start, end) of each item
    if tracer:
        tracer.active = True
    for index, item in enumerate(spec["items"]):
        left, right = donors[tuple(item["left"])], donors[tuple(item["right"])]
        lam, mu = item["lam"], item["mu"]
        outcome.items += 1
        if tracer:
            tracer.item = index
        yard.tick()
        start = perf_counter()
        try:
            glued = nsg.glue(left, right, lam, mu)
            d = nsg.extra_degree(glued, left, right, lam, mu)
            tree = nsg.ci_tree(glued)
            a = nsg.a_invariant(glued)
            report = nsg.check_star_gluing(left, right, lam, mu)
        except Exception as err:  # every item is attempted; a raise is a failed item
            timed.append((start, perf_counter()))
            outcome.fail(f"gluing {item['glued']}: {type(err).__name__}: {err}")
            continue
        timed.append((start, perf_counter()))
        f = item["F"]
        ok = (
            glued.generators == tuple(item["glued"])
            and glued.frobenius == f
            and f == d + mu * item["F_left"] + lam * item["F_right"]
            and a == f
            and d % (lam * mu) == 0 and d >= lam * mu
            and tree is not None and not tree_errors(tree.to_record())
            and report.frobenius == f and report.extra_degree == d and report.passed
        )
        if not ok:
            outcome.fail(f"gluing {item['glued']} fails its identities")
    yard.tick()
    if tracer:
        tracer.active = False
    return {"wall": sum(end - start for start, end in timed), "rss_mb": peak_rss_mb(), "timed": timed}


# ----------------------------------------------------------- large-single


def check_command(cmd: str, gens: tuple, doc: dict) -> list[str]:
    errors = []
    if tuple(doc.get("generators", ())) != gens:
        errors.append("generators differ")
    if len(gens) == 2:
        a, b = gens
        frob, genus, d_max = a * b - a - b, (a - 1) * (b - 1) // 2, a * b
        if cmd == "info":
            gap_list = doc["gaps"]
            if (doc["frobenius"], doc["genus"], doc["multiplicity"], doc["embedding_dim"]) != (frob, genus, a, 2):
                errors.append("F, genus, multiplicity or embedding dimension wrong")
            # x = i*a + j*b with j = x/b mod a, so x is in <a, b> exactly when j*b <= x
            b_inverse = pow(b, -1, a)
            if len(gap_list) != genus or any(y <= x for x, y in zip(gap_list, gap_list[1:])) \
                    or any((x * b_inverse % a) * b <= x for x in gap_list) or gap_list[-1] != frob:
                errors.append("gap list wrong")
            if sorted(doc["apery"].values()) != [k * b for k in range(a)]:
                errors.append("Apery set wrong")
        elif cmd == "presentation":
            if doc["degrees"] != [d_max] or doc["betti"] != [d_max]:
                errors.append("presentation degrees wrong")
        elif cmd == "star":
            if (doc["frobenius"], doc["d_max"], doc["margin"], doc["star_verdict"]) != (frob, d_max, 2 * frob - d_max, "satisfied"):
                errors.append("star report wrong")
        elif cmd == "classify":
            if doc["exception"] != "satisfies":
                errors.append("classification wrong")
    if cmd == "ci-tree":
        if doc.get("ci") is not True:
            errors.append("not certified CI")
        else:
            errors += tree_errors(doc["tree"])
    if cmd == "presentation":
        relations = doc["relations"]
        for rel in relations:
            left, right = rel["left"], rel["right"]
            values = {sum(c * g for c, g in zip(side, gens)) for side in (left, right)}
            if values != {rel["degree"]} or any(x and y for x, y in zip(left, right)):
                errors.append(f"relation {rel} is not a relation between disjoint supports")
        degrees = sorted(rel["degree"] for rel in relations)
        if degrees != doc["degrees"] or sorted(set(degrees)) != doc["betti"]:
            errors.append("degrees and Betti elements disagree with the relations")
        if len(relations) == len(gens) - 1 and sum(degrees) - sum(gens) != oracle.frobenius(gens):
            errors.append("a-invariant of a complete intersection differs from F")
    return errors


def large_single(request: dict, tracer: Tracer | None, outcome: Outcome, yard: Yardstick) -> dict:
    tmp = request["tmp"]
    timed, outputs = [], []
    if tracer:
        tracer.active = True
    for index, (cmd, gens) in enumerate(request["inputs"]["commands"]):
        outcome.items += 1
        if tracer:
            tracer.item = index
        out_path = os.path.join(tmp, f"command-{index}.out")
        yard.tick()
        code, start, end = run_cli([cmd, ",".join(map(str, gens)), "--format", "json"], out_path)
        timed.append((start, end))
        outputs.append((cmd, tuple(gens), code, out_path))
    yard.tick()
    if tracer:
        tracer.active = False
    rss = peak_rss_mb()
    output_bytes = 0
    for cmd, gens, code, out_path in outputs:
        output_bytes += os.path.getsize(out_path)
        errors = [f"exit code {code}"] if code != 0 else []
        if not errors:
            with open(out_path, encoding="utf-8") as handle:
                errors = check_command(cmd, gens, json.load(handle))
        os.remove(out_path)
        if errors:
            outcome.fail(f"{cmd} {gens}: {'; '.join(errors)}")
    return {"wall": sum(end - start for start, end in timed), "rss_mb": rss, "timed": timed,
            "output_bytes": output_bytes}


WORKLOADS = {"census": census, "gluing": gluing, "large-single": large_single}


# ---------------------------------------------------------------- metrics


# public function -> the per-layer metric that holds its time
TIMED_METRICS = {
    "presentations.minimal_presentation": "presentations.minimal_presentation_s",
    "core.make_semigroup": "core.make_semigroup_s",
    "core.gaps": "core.gaps_s",
    "gluing.glue": "gluing.glue_s",
    "gluing.extra_degree": "gluing.extra_degree_s",
    "gluing.ci_tree": "gluing.ci_tree_s",
    "star.star_report": "star.star_report_s",
    "star.classify_exception": "star.classify_exception_s",
    "star.check_star_gluing": "star.check_star_gluing_s",
    "census.write_records": "census.write_records_s",
    "census.read_records": "census.read_records_s",
}


def layer_metrics(processes: list, traced_wall: float) -> dict:
    """Per-layer times and exact counts from the spans of every process.

    trace.coverage is the part of the traced wall that the declared layer
    metrics account for: the self time of the functions in TIMED_METRICS
    plus cli.self_s, in the main process.  Self time is a span's duration
    minus that of the spans nested in it.  Time in other traced functions
    (record_for, enumerate_records, summarize, a_invariant) and in code
    outside every span lowers it.
    """
    fn_time: dict[str, float] = {}
    cli_self = 0.0
    covered = 0.0
    for number, (spans, _) in enumerate(processes):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _item in spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _item) in enumerate(spans):
            self_time = (end - start) - child_time[index]
            if name.startswith("cli."):
                cli_self += self_time
            if number == 0 and (name in TIMED_METRICS or name.startswith("cli.")):
                covered += self_time
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor is None:  # outermost call of this function
                fn_time[name] = fn_time.get(name, 0.0) + end - start

    counts: dict[tuple, dict] = {}
    for _, proc_counts in processes:
        for key, value in proc_counts.items():
            counts.setdefault(key, value)
    totals: dict[str, int] = {}
    fibers_at_betti = 0
    for (name, gens), value in counts.items():
        for field, amount in value.items():
            if field == "betti":
                semigroup = nsg.make_semigroup(list(gens))
                fibers_at_betti += sum(len(nsg.factorizations(semigroup, b)) for b in amount)
            else:
                totals[field] = totals.get(field, 0) + amount

    return {
        **{metric: fn_time.get(name, 0.0) for name, metric in TIMED_METRICS.items()},
        "presentations.guard_fibers": totals.get("guard_fibers", 0),
        "presentations.factorizations_at_betti": fibers_at_betti,
        "presentations.scan_candidates": totals.get("scan_candidates", 0),
        "presentations.betti_elements": totals.get("betti_elements", 0),
        "presentations.relations": totals.get("relations", 0),
        "gluing.splits_found": totals.get("splits_found", 0),
        "gluing.ci_count": totals.get("ci_count", 0),
        "cli.self_s": cli_self,
        "trace.coverage": covered / traced_wall if traced_wall > 0 else 0.0,
    }


def main(request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    result = {"ready": READY}
    workload = request["workload"]
    if workload != "setup":
        outcome = Outcome()
        yard = Yardstick(request["calibrate"])
        tracer = None
        if request["trace"]:
            tracer = Tracer(request["spool"])
            tracer.install()
        elif workload == "census":
            # untraced census runs time only the item boundary, one span per
            # record, and take yardstick slices between records
            tracer = Tracer(request["spool"], only=("census.record_for",))
            tracer.after_call = yard.tick
            tracer.install()
        result.update(WORKLOADS[workload](request, tracer, outcome, yard))
        if workload == "census":
            result["timed"] = [
                (start, end)
                for spans, _ in tracer.processes()
                for name, start, end, _, _ in spans
                if name == "census.record_for"
            ]
        # each latency at the reference speed, by the slices around its
        # item; the iteration's slowdown is their mean weighted by time
        timed = result.pop("timed")
        local = [yard.local(start, end) for start, end in timed]
        latencies = [end - start for start, end in timed]
        result["latencies"] = [latency / slowdown for latency, slowdown in zip(latencies, local)]
        result["slowdown"] = sum(map(operator.mul, local, latencies)) / sum(latencies)
        if request["trace"]:
            tracer.uninstall()
            processes = tracer.processes()
            result["layers"] = dict(
                layer_metrics(processes, result["wall"]),
                **{"census.walk_s": result.get("walk_s", 0.0),
                   "census.semigroups": result.get("semigroups", 0),
                   "census.ndjson_bytes": result.get("ndjson_bytes", 0),
                   "cli.output_bytes": result.get("output_bytes", 0)})
            with open(request["spans_out"], "w", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "start", "end", "parent", "item"],
                           "processes": [spans for spans, _ in processes]}, handle)
        result.update(items=outcome.items, failed=outcome.failed, errors=outcome.errors)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

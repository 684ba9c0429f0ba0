"""Benchmark of the anticycle engine, driven from outside the package.

    python3 bench/run.py --workload walk-decompose --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

It imports the package from ``src/``, builds every input from ``--seed``,
times calls into public functions for ``--seconds``, and checks every
output with its own arithmetic (``check.py``).  The last line of standard
output is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The exit code is
non-zero when any output check fails.  Run records and spans go to
``.bench_out/``.  WORKLOADS.md explains the workloads and metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("walk-decompose", "pencil-cli")
#: Set-up repetitions in an untraced run; setup_s takes their median.
SETUP_REPS = 5
#: Rounds of the three import-probe processes in a traced run.
PROBE_ROUNDS = 7
#: The machine's speed drifts by tens of percent within seconds (shared
#: cores), so every timed phase interleaves a calibration kernel, and times
#: are scaled to the speed at which the kernel takes KERNEL_REF_S.  After
#: each item the kernel runs once; its time is not counted.  Each item is
#: scaled by the median kernel time of its segment of SEGMENT_ITEMS items,
#: each set-up repetition by SETUP_KERNELS kernel runs before it and as
#: many after.
SEGMENT_ITEMS = 25
SETUP_KERNELS = 5
ITEM_METRICS = ("items_per_s", "latency_p50_ms", "latency_tail_ms")


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, by name, as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


class Outputs:
    """The first output of each corpus item, kept for checking, and the
    number of later outputs that differ from it."""

    def __init__(self) -> None:
        self.firsts: dict = {}
        self.mismatches = 0

    def add(self, index: int, out) -> None:
        if index not in self.firsts:
            self.firsts[index] = out
        elif out != self.firsts[index]:
            self.mismatches += 1


def run_item(workload, corpus, index: int):
    """One item's output (or what it raised) and its time."""
    t0 = time.perf_counter()
    try:
        out = workload.run(corpus, index)
    except Exception:
        out = Raised(traceback.format_exc())
    return out, time.perf_counter() - t0


def _phase(latencies, outputs: Outputs, n: int, **extra) -> dict:
    return {"latencies": latencies, "firsts": outputs.firsts, "mismatches": outputs.mismatches,
            "attempted": len(latencies), "n": n, **extra}


def timed_phase(workload, corpus, seconds: float) -> dict:
    """Cycle through the corpus until ``seconds`` have passed and every
    item has run at least once.

    Per item only the call is timed.  After each item the calibration
    kernel runs once, so that every kernel run meets the same cache state;
    ``kernels[i]`` is its time after item i.
    """
    import workloads

    latencies, kernels, outputs = [], [], Outputs()
    n = len(corpus.items)
    deadline = time.perf_counter() + seconds
    while True:
        index = len(latencies) % n
        out, latency = run_item(workload, corpus, index)
        done = time.perf_counter()
        latencies.append(latency)
        outputs.add(index, out)
        c0 = time.perf_counter()
        workloads.kernel()
        kernels.append(time.perf_counter() - c0)
        if done >= deadline and len(latencies) >= n:
            break
    return _phase(latencies, outputs, n, kernels=kernels)


def traced_phase(workload, corpus, passes: int, tracer) -> tuple[dict, dict]:
    """``passes`` passes over the corpus, each item once untraced and once
    traced: the untraced and the traced phase.

    The run stops on a count, not a clock, so span counts are fixed for a
    commit and self times are the cost of a fixed amount of work.  The
    items go in segments of SEGMENT_ITEMS; each segment runs untraced and
    traced back to back, the tracer installed for the traced run only, and
    the order alternates from segment to segment, so that the machine's
    drift and warm-up hit both sides alike.
    """
    n = len(corpus.items)
    total = passes * n
    runs = {False: ([None] * total, Outputs()), True: ([None] * total, Outputs())}
    for number, a in enumerate(range(0, total, SEGMENT_ITEMS)):
        segment = range(a, min(a + SEGMENT_ITEMS, total))
        for traced in ((False, True) if number % 2 == 0 else (True, False)):
            latencies, outputs = runs[traced]
            if traced:
                tracer.install()
            try:
                for attempt in segment:
                    tracer.item = attempt
                    out, latencies[attempt] = run_item(workload, corpus, attempt % n)
                    outputs.add(attempt % n, out)
            finally:
                if traced:
                    tracer.uninstall()
    return _phase(*runs[False], n), _phase(*runs[True], n)


def local_slowdowns(kernels: list[float]) -> list[float]:
    """Each item's slowdown: the median kernel time over the reference, in
    its segment of SEGMENT_ITEMS consecutive items.

    The machine's speed changes within seconds, so one factor per run does
    not follow it.  A short last segment joins the one before it.
    """
    import workloads

    starts = list(range(0, len(kernels), SEGMENT_ITEMS))
    if len(starts) > 1 and len(kernels) - starts[-1] < SEGMENT_ITEMS:
        starts.pop()
    out = []
    for a, b in zip(starts, starts[1:] + [len(kernels)]):
        out += [statistics.median(kernels[a:b]) / workloads.KERNEL_REF_S] * (b - a)
    return out


@dataclass(frozen=True)
class Raised:
    """An item that raised instead of returning."""

    error: str


def check_phase(workload, corpus, phase) -> tuple[int, list[str]]:
    """Failed items and the problems found."""
    bad = set()
    problems = []
    for index, out in phase["firsts"].items():
        found = [out.error] if isinstance(out, Raised) else workload.check(corpus, index, out)
        if found:
            bad.add(index)
            problems.append(f"item {index}: {'; '.join(found)}")
    n = len(corpus.items)
    failed = sum(1 for i in range(phase["attempted"]) if i % n in bad) + phase["mismatches"]
    if phase["mismatches"]:
        problems.append(f"{phase['mismatches']} repeated items gave a different output")
    return failed, problems


def digest(workload, corpus, phase) -> str:
    """sha256 over the rendered outputs of the distinct items run, in corpus order."""
    h = hashlib.sha256()
    for index in sorted(phase["firsts"]):
        out = phase["firsts"][index]
        text = out.error if isinstance(out, Raised) else workload.render(corpus, index, out)
        h.update(text.encode("utf-8") + b"\n")
    return h.hexdigest()


def _percentile(ordered: list[float], q: float) -> float:
    """The sample at or above q percent of the sorted samples."""
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def item_stats(workload, latencies: list[float], n: int) -> dict:
    """Throughput, p50 and the workload's tail percentile over per-item
    latencies: the median of each of the n corpus items over its runs.

    Statistics over these weigh every input once, whatever part of a last
    pass the run reached.
    """
    items = [statistics.median(latencies[i::n]) for i in range(n)]
    ordered = sorted(items)
    tail = _percentile(ordered, workload.tail_pct)
    return {
        "items_per_s": n / sum(items),
        "latency_p50_ms": _percentile(ordered, 50) * 1000,
        "latency_tail_ms": tail * 1000,
        "tail_pct": workload.tail_pct,
        "tail_beyond": sum(1 for x in items if x > tail),
    }


def setup_reps(workload, seed: int, reps: int):
    """The corpus, and each repetition's set-up time with its slowdown.

    The kernel runs SETUP_KERNELS times before and after each repetition.
    """
    import workloads

    def kernels() -> list[float]:
        out = []
        for _ in range(SETUP_KERNELS):
            t0 = time.perf_counter()
            workloads.kernel()
            out.append(time.perf_counter() - t0)
        return out

    times, slowdowns, corpus = [], [], None
    for _ in range(reps):
        before = kernels()
        t0 = time.perf_counter()
        fresh = workload.setup(seed, OUT)
        times.append(time.perf_counter() - t0)
        slowdowns.append(statistics.median(before + kernels()) / workloads.KERNEL_REF_S)
        if corpus is not None and fresh != corpus:
            raise RuntimeError("set-up is not deterministic for one seed")
        corpus = fresh
    return corpus, times, slowdowns


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_one(args) -> int:
    if not (SRC / "anticycle" / "__init__.py").is_file():
        print(f"run.py: no anticycle package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = time.perf_counter() - _START
    env = environment()
    units = declared_units()[args.trace]
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env python {env['python']} nproc {env['nproc']} "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    if args.trace == 0:
        corpus, times, setup_slowdowns = setup_reps(workload, args.seed, SETUP_REPS)
        phase = timed_phase(workload, corpus, args.seconds)
        phases = [phase]
        slowdowns = local_slowdowns(phase["kernels"])
        n = phase["n"]
        stats = item_stats(workload, [x / s for x, s in zip(phase["latencies"], slowdowns)], n)
        raw = item_stats(workload, phase["latencies"], n)
        metrics = {
            "setup_s": import_s / setup_slowdowns[0]
            + statistics.median(t / s for t, s in zip(times, setup_slowdowns)),
            **{name: stats[name] for name in ITEM_METRICS},
            "peak_rss_mb": peak_rss_mb(),
        }
        raw = {"setup_s": import_s + statistics.median(times),
               **{name: raw[name] for name in ITEM_METRICS}}
        record["raw"] = raw
        record["setup_first_s"] = import_s / setup_slowdowns[0] + times[0] / setup_slowdowns[0]
        record["slowdown"] = statistics.median(slowdowns)
        record["slowdown_range"] = (min(slowdowns), max(slowdowns))
        record["setup_slowdowns"] = setup_slowdowns
        record["latency"] = stats
        record["setup_reps_s"] = times
    else:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            corpus, _, _ = setup_reps(workload, args.seed, 1)
        finally:
            tracer.uninstall()
        untraced, traced = traced_phase(workload, corpus, workload.trace_passes, tracer)
        phases = [untraced, traced]
        metrics = tracer.metrics()
        metrics.update(workloads.import_probes(PROBE_ROUNDS))
        # Unscaled and over the same items: no calibration kernel runs here.
        rate = [item_stats(workload, p["latencies"], p["n"])["items_per_s"] for p in phases]
        metrics["trace.overhead_ratio"] = rate[0] / rate[1]
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv")
        record["trace_passes"] = workload.trace_passes
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics not in BENCHMARK.json: {sorted(set(metrics) - set(units))}; "
            f"listed there but not measured: {sorted(set(units) - set(metrics))}"
        )

    failed, problems, attempted = 0, [], 0
    for phase in phases:
        f, p = check_phase(workload, corpus, phase)
        failed += f
        problems += p
        attempted += phase["attempted"]
    record["digest"] = digest(workload, corpus, phases[0])
    record["digest_items"] = len(phases[0]["firsts"])
    record["failed_ratio"] = failed / attempted
    record["problems"] = problems[:50]
    record["metrics"] = metrics
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    for problem in problems[:10]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} items)")
    if args.trace == 0:
        s = record["latency"]
        print(f"slowdown median {record['slowdown']:.4f}, range {record['slowdown_range'][0]:.4f}-"
              f"{record['slowdown_range'][1]:.4f} (set-up {statistics.median(setup_slowdowns):.4f}) "
              "against the calibration reference; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"setup_s is the import plus the median of {SETUP_REPS} set-ups; "
              f"the first set-up alone gives {record['setup_first_s']:.6g} s")
        print(f"latencies are per-item medians over {phase['attempted']} runs of {phase['n']} items; "
              f"latency_tail_ms is p{s['tail_pct']}, with {s['tail_beyond']} items beyond it")
    else:
        print(f"{workload.trace_passes} passes of {traced['n']} items, each item run once "
              "untraced and once traced in alternating segments")
    print(f"digest {record['digest']} over {record['digest_items']} distinct items")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(argv, cwd=ROOT).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

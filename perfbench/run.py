#!/usr/bin/env python3
"""Benchmark of cayley_embed: four serial workloads through the public API.

    python3 perfbench/run.py --workload psi-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload runs in a fresh worker process
that imports the package from ``src/``: set-up first, then timed passes of
the workload's fixed job until ``--seconds`` of pass time have been spent
(always at least one pass).  species-cold starts a new worker for every pass,
because its point is the cold process.  Every answer is checked; a wrong
answer or an exception counts as a failed op and the run goes on.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
instead.  A traced run alternates untraced and traced passes, and reports
the tracing overhead as the median difference between a traced pass and the
untraced pass before it.  Spans of the set-up and of the first traced pass
go to ``.perfbench/``.  A readable summary, with the machine-independent
counters, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("species-cold", "psi-sweep", "embed-queries", "partition-search")
# the whole run, workers included, must end well inside three minutes
TIME_LIMIT_S = 165.0
# op_tail_ms is the highest of these percentiles that leaves at least ten
# ops of one pass above it
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 97.5, 90.0, 75.0, 50.0)
# An untraced run whose set-up takes less than CHEAP_SETUP_S starts workers
# that only set up, until setup_s is a median of SETUP_SAMPLES set-ups.
SETUP_SAMPLES = 9
CHEAP_SETUP_S = 1.0
# The fastest of n repeats falls as n grows, so the end-to-end timings use the
# first n untraced passes of a run (all of them when there are fewer): a slow
# host, which leaves room for fewer passes, must not also get fewer repeats.
# Each n is the number of passes a 40-second run always holds.
TIMED_PASSES = {"species-cold": 2, "psi-sweep": 20, "embed-queries": 3, "partition-search": 3}


def tail_percentile(ops_per_pass: int) -> float:
    for pct in TAIL_PERCENTILES:
        if ops_per_pass * (100.0 - pct) / 100.0 >= 10:
            return pct
    return TAIL_PERCENTILES[-1]


def measured_enough(seconds: int, spent: float, kinds: set, trace: bool) -> bool:
    """At least `seconds` of pass time, and in a traced run both kinds of pass."""
    return spent >= seconds and (not trace or len(kinds) == 2)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def best_latencies(passes: list[dict]) -> list[float]:
    """Each op's fastest latency over the passes.

    Every pass runs the same ops in the same order.  The host alternates
    between fast and slow phases of several seconds, and a slow phase only
    ever adds time, so the fastest of an op's repeats is its steadiest
    measure.
    """
    return [min(times) for times in zip(*(p["latencies"] for p in passes))]


# ---------------------------------------------------------------------------
# Worker: runs in its own process, prints one JSON line for the parent.


def worker(cfg: dict) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import cayley_embed
    except ImportError as exc:
        print(f"perfbench: cannot import cayley_embed from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cayley_embed.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: cayley_embed imported from {cayley_embed.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Pass

    workload = WORKLOADS[cfg["workload"]]
    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        tracer.install()
    try:
        state = workload.setup(cfg["seed"])
    except Exception as exc:  # no inputs, no run: report it without a traceback
        print(f"perfbench: set-up of {workload.name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    setup_s = time.monotonic() - cfg["spawned"]
    setup_spans: list = []
    if tracer is not None:
        tracer.restore()
        setup_spans = tracer.take()
    if cfg["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "rss_mb": _rss_mb(), "passes": [], "layers": None, "not_observed": []}))
        return 0

    passes: list[dict] = []
    first_traced = None
    first_traced_index = -1
    spent = cfg["spent"]
    k = cfg["first_pass"]
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        p = Pass(tracer if traced else None, plant_failure=cfg["plant_failure"] and k == 0)
        start = time.perf_counter()
        try:
            workload.run(state, p)
        except Exception as exc:  # a check that raised outside an op
            p.require(f"pass aborted: {type(exc).__name__}: {exc}", False)
        solve_s = time.perf_counter() - start
        if traced:
            tracer.restore()
            spans = tracer.take()
            if first_traced is None:
                first_traced, first_traced_index = spans, k
        passes.append(
            {
                "solve_s": solve_s,
                "traced": traced,
                "latencies": p.latencies,
                "attempted": len(p.latencies) + p.checks,
                "failed": p.failed,
                "problems": p.problems,
                "counters": dict(sorted(p.counters.items())),
            }
        )
        k += 1
        spent += solve_s
        if workload.passes_per_process == len(passes):
            break
        kinds = set(cfg["kinds_seen"]) | {q["traced"] for q in passes}
        if measured_enough(cfg["seconds"], spent, kinds, cfg["trace"]):
            break
        if time.monotonic() + solve_s > cfg["deadline"]:
            break

    layers = None
    if first_traced is not None:
        layers = layer_metrics(setup_spans, first_traced)
        OUT.mkdir(exist_ok=True)
        dump = {
            "workload": cfg["workload"],
            "seed": cfg["seed"],
            "not_observed": tracer.not_observed,
            "setup": [s.to_json() for s in setup_spans],
            "pass": [s.to_json() for s in first_traced],
        }
        path = OUT / f"spans-{cfg['workload']}-seed{cfg['seed']}-pass{first_traced_index}.json"
        path.write_text(json.dumps(dump))
    result = {
        "setup_s": setup_s,
        "rss_mb": _rss_mb(),
        "passes": passes,
        "layers": layers,
        "not_observed": tracer.not_observed if tracer is not None else [],
    }
    print(json.dumps(result))
    return 0


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Parent: starts the workers, aggregates, prints the result line.


def run_workers(args) -> list[dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    workers: list[dict] = []
    spent = 0.0
    k = 0
    kinds: set[bool] = set()

    def spawn(setup_only: bool) -> float:
        """Run one worker to its end; returns its wall time."""
        spawned = time.monotonic()
        cfg = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "plant_failure": args.plant_failure,
            "setup_only": setup_only,
            "spawned": spawned,
            "deadline": deadline,
            "spent": spent,
            "first_pass": k,
            "kinds_seen": sorted(kinds),
        }
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(cfg)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline + 10.0 - spawned),
        )
        if proc.returncode != 0:
            raise NoResult(f"worker exited with code {proc.returncode}", proc.returncode)
        workers.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        return time.monotonic() - spawned

    while True:
        wall = spawn(setup_only=False)
        for p in workers[-1]["passes"]:
            spent += p["solve_s"]
            kinds.add(p["traced"])
            k += 1
        if measured_enough(args.seconds, spent, kinds, bool(args.trace)):
            break
        if time.monotonic() + wall > deadline:
            break
    if not args.trace:
        while (
            len(workers) < SETUP_SAMPLES
            and statistics.median(w["setup_s"] for w in workers) < CHEAP_SETUP_S
            and time.monotonic() + 10.0 < deadline
        ):
            spawn(setup_only=True)
    return workers


class NoResult(RuntimeError):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def summarise(args, workers: list[dict]) -> dict:
    passes = [p for w in workers for p in w["passes"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    counters = {json.dumps(p["counters"], sort_keys=True) for p in passes}
    ops_per_pass = len(passes[0]["latencies"])
    tail = tail_percentile(ops_per_pass)

    log = lambda line: print(line, file=sys.stderr)  # noqa: E731
    setup_only = sum(not w["passes"] for w in workers)
    log(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
        f"({len(traced)} traced) in {len(workers) - setup_only} worker process(es), "
        f"{setup_only} more for set-up only")
    log(f"  ops attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.6f}")
    log(f"  op_tail_ms is p{tail:g} of {ops_per_pass} ops per pass")
    log(f"  counters {passes[0]['counters']}")
    if len(counters) != 1:
        log("  COUNTERS DIFFER BETWEEN PASSES:")
        for c in sorted(counters):
            log(f"    {c}")
    for p in passes:
        for problem in p["problems"]:
            log(f"  failed: {problem}")

    if args.trace:
        layers = next((w["layers"] for w in workers if w["layers"] is not None), None)
        if layers is None or not untraced:
            raise NoResult("the time limit left no traced or no untraced pass")
        metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
        # each traced pass against the untraced pass just before it, so that
        # the host's slow stretches mostly cancel
        overhead = statistics.median(
            b["solve_s"] - a["solve_s"] for a, b in zip(passes, passes[1:]) if b["traced"] and not a["traced"]
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        missing = sorted({n for w in workers for n in w["not_observed"]})
        for name in missing:
            log(f"  layer function {name}: not observed (no longer a public module attribute)")
        for name in sorted(n[: -len(".calls")] for n, v in layers.items() if n.endswith(".calls") and v == 0):
            if name not in missing:
                log(f"  layer function {name}: not called on this workload")
    else:
        timed = untraced[: TIMED_PASSES[args.workload]]
        log(f"  timings from the first {len(timed)} of {len(untraced)} passes")
        best = best_latencies(timed)
        metrics = {
            "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
            "solve_s": (min(p["solve_s"] for p in timed), "s"),
            "op_p50_ms": (1000.0 * percentile(best, 50.0), "ms"),
            "op_tail_ms": (1000.0 * percentile(best, tail), "ms"),
            "peak_rss_mb": (max(w["rss_mb"] for w in workers), "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0 and len(counters) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return worker(json.loads(argv[1]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-failure",
        action="store_true",
        help="invert the expected answer of the first op (self-test of failure accounting)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        workers = run_workers(args)
        result = summarise(args, workers)
    except NoResult as exc:
        print(f"perfbench: {exc}; no result", file=sys.stderr)
        return exc.code if exc.code > 0 else 1
    except subprocess.TimeoutExpired:
        print("perfbench: worker exceeded the time limit; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Serving-stack benchmark: host speed and virtual-cycle metrics.

Run from the repository root::

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer split instead (see ``perfbench/README.md``), writing the spans
of one traced serve to ``perfbench/out/`` as a Chrome trace.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 0 only
when every output checked out.
"""

import os

# BLAS threads are pinned before numpy loads: the model's GEMVs are tiny
# and a many-threaded BLAS only adds contention on a small box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
#: Cold set-up samples per run: this process plus fresh child processes.
SETUP_PROBES = 2
#: Largest |run-tree self time - decode.run time| / decode.run time.
RECONCILE_TOLERANCE = 0.01
#: step_ms_tail is the mean of this share of the slowest iterations.
TAIL_SHARE = 0.01


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decode-long", "serve-bursty", "spec-tree"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one cold set-up, print it, exit")
    parser.add_argument("--record-digest", action="store_true",
                        help="run the checked pass only and store its "
                             "digests in perfbench/digests.json")
    return parser.parse_args(argv)


def setup(workload: str, seed: int) -> tuple[Any, dict[str, float]]:
    """Import, build the session's decoder, and warm up once."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.core.session import NovaSession

    from perfbench.workloads import GEOMETRY, WORKLOADS

    imported = time.perf_counter()
    engine = NovaSession(GEOMETRY).decoder
    built = time.perf_counter()
    engine.generate(WORKLOADS[workload].warmup_request(seed))
    warm = time.perf_counter()
    return engine, {
        "import_s": imported - _START,
        "session_s": built - imported,
        "setup_s": warm - _START,
    }


def cold_setups(workload: str, seed: int) -> list[dict[str, float]]:
    """Set-up timings of fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank(values: list[float], pct: float) -> float:
    from repro.serving import percentile

    return percentile(values, pct) if values else 0.0


def tail_mean(values: list[float], share: float) -> float:
    """Mean of the slowest ``share`` of ``values`` (at least one)."""
    worst = sorted(values)[-max(1, math.ceil(share * len(values))):]
    return sum(worst) / len(worst) if worst else 0.0


def iteration_medians(by_unit: dict[int, list[list[float]]]) -> list[float]:
    """Each scheduler iteration's host time, median over the repetitions
    of its unit (a unit replays the same iterations every time)."""
    return [
        statistics.median(times)
        for reps in by_unit.values()
        for times in zip(*reps)
    ]


def committed_digests() -> dict[str, Any]:
    if DIGESTS.is_file():
        loaded: dict[str, Any] = json.loads(DIGESTS.read_text())
        return loaded
    return {}


def check_digests(name: str, seed: int, records: list, check: Any,
                  notes: list[str]) -> None:
    expected = committed_digests().get(name, {}).get(str(seed))
    if expected is None:
        notes.append(f"no committed digest for {name} seed {seed}; "
                     "checked against solo generate only")
        return
    for (label, n, digest), want in zip(records, expected):
        if digest is not None and digest != want:
            check.fail(n, f"{label} digest {digest} != committed {want}")


def record_digests(name: str, seed: int, records: list) -> None:
    table = committed_digests()
    table.setdefault(name, {})[str(seed)] = [d for _, _, d in records]
    table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def timed_serve(workload: Any, index: int, check: Any,
                tracer: Any = None) -> tuple | None:
    """One repetition of one unit: ``(served, wall seconds, iteration
    seconds)``, or ``None`` when the serve raised (counted as failed)."""
    from perfbench.workloads import TimedPolicy

    policy = TimedPolicy(workload.policy_name, tracer)
    n = workload.unit_requests(index)
    check.attempted += n
    gc.collect()
    start = time.perf_counter()
    try:
        served = workload.serve(index, policy)
    except Exception as err:  # counted, reported, run continues
        check.fail(n, f"repetition of unit {index} raised "
                      f"{type(err).__name__}: {err}")
        return None
    end = time.perf_counter()
    return served, end - start, policy.iteration_seconds(end)


def same_rep(workload: Any, index: int, served: Any, reference: Any,
             check: Any, label: str) -> None:
    if reference is not None and served.digest != reference.digest:
        check.fail(workload.unit_requests(index),
                   f"{label} of unit {index} diverged from the checked pass")


def measure(workload: Any, checked: Any, seconds: float,
            check: Any) -> dict[str, Any]:
    """Untraced repetitions, round-robin over the units.

    ``tokens_per_s`` is one pass over every unit: its generated tokens
    over the sum of each unit's median wall time, so units that got one
    repetition more than others do not shift it.
    """
    tokens: dict[int, int] = {}
    walls: dict[int, list[float]] = {}
    by_unit: dict[int, list[list[float]]] = {}
    n_units = len(workload.units)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n_units or time.perf_counter() < deadline:
        index = i % n_units
        i += 1
        rep = timed_serve(workload, index, check)
        if rep is None:
            continue
        served, wall, iterations = rep
        same_rep(workload, index, served, checked.served[index], check,
                 "repetition")
        tokens[index] = served.result.total_generated_tokens
        walls.setdefault(index, []).append(wall)
        by_unit.setdefault(index, []).append(iterations)
    pass_s = sum(median(w) for w in walls.values())
    return {
        "tokens_per_s": sum(tokens.values()) / pass_s if pass_s else 0.0,
        "repetitions": sum(len(w) for w in walls.values()),
        "steps": iteration_medians(by_unit),
    }


def layer_metrics(tracer: Any, served: Any, untraced: float,
                  traced: float) -> dict[str, float]:
    """Per-layer metrics of one traced serve (seconds are self time)."""
    t = tracer
    result = served.result
    paging = result.paging or {}
    hits = paging.get("prefix_hits", 0)
    lookups = hits + paging.get("prefix_misses", 0)
    lanes = t.counts.get("vector_unit.lanes", 0)
    passes = t.calls("spec.finish")
    drafted = t.counts.get("spec.drafted", 0)
    steps = result.scheduler_steps
    tokens = result.total_generated_tokens
    softmax_calls = t.counts.get("host.softmax_calls", 0)
    return {
        "accounting.counter_s": t.self_s("accounting.counter"),
        "accounting.counter_ops": t.calls("accounting.counter"),
        "accounting.segment_index_s": t.self_s("accounting.segment_index"),
        "accounting.segment_index_calls":
            t.calls("accounting.segment_index"),
        "accounting.schedule_calls": t.calls("accounting.schedule"),
        "vector_unit.retarget_s": t.self_s("vector_unit.retarget"),
        "vector_unit.retarget_calls": t.calls("vector_unit.retarget"),
        "vector_unit.stream_s": t.self_s("vector_unit.stream"),
        "vector_unit.stream_calls": t.calls("vector_unit.stream"),
        "vector_unit.queries": t.counts.get("vector_unit.queries", 0),
        "vector_unit.pad_share":
            1.0 - t.counts.get("vector_unit.queries", 0) / lanes
            if lanes else 0.0,
        "host.project_s": t.self_s("host.project"),
        "host.scores_s": t.self_s("host.scores"),
        "host.context_s": t.self_s("host.context"),
        "host.softmax_s": t.self_s("host.softmax"),
        "host.token_calls": t.calls("host.project"),
        "host.softmax_rows_per_call":
            t.counts.get("host.softmax_rows", 0) / softmax_calls
            if softmax_calls else 0.0,
        "kernels.gather_mac_s": t.self_s("kernels.gather_mac"),
        "kernels.tag_match_s": t.self_s("kernels.tag_match"),
        "kernels.launches": t.calls("kernels.gather_mac"),
        "kernels.bytes": t.counts.get("kernels.bytes", 0),
        "paging.append_s": t.self_s("paging.append"),
        "paging.append_calls": t.calls("paging.append"),
        "paging.read_s": t.self_s("paging.read"),
        "paging.read_calls": t.calls("paging.read"),
        "paging.fork_calls": t.calls("paging.fork"),
        "paging.truncate_calls": t.calls("paging.truncate"),
        "paging.blocks_allocated":
            t.counts.get("paging.blocks_allocated", 0),
        "paging.cow_copies": paging.get("cow_copies", 0),
        "paging.prefix_hit_rate": hits / lookups if lookups else 0.0,
        "paging.peak_fragmentation_slots":
            result.peak_fragmentation_slots if result.paging else 0,
        "spec.plan_s": t.self_s("spec.plan"),
        "spec.finish_s": t.self_s("spec.finish"),
        "spec.draft_s": t.self_s("spec.draft"),
        "spec.passes": passes,
        "spec.drafted": drafted,
        "spec.accepted": t.counts.get("spec.accepted", 0),
        "spec.acceptance":
            t.counts.get("spec.accepted", 0) / drafted if drafted else 0.0,
        "spec.rolled_back": t.counts.get("spec.rolled_back", 0),
        "spec.tokens_per_pass":
            t.counts.get("spec.committed", 0) / passes if passes else 0.0,
        "serving.policy_s": t.self_s("serving.policy"),
        "serving.policy_calls": t.calls("serving.policy"),
        "serving.report_s": t.self_s("serving.report"),
        "serving.deferrals": result.deferrals,
        "serving.preemptions": result.preemptions,
        "decode.run_s": t.total_s("decode.run"),
        "decode.self_s": t.self_s("decode.run"),
        "decode.steps": steps,
        "decode.tokens_per_step": tokens / steps if steps else 0.0,
        "decode.start_s": t.self_s("decode.start"),
        "trace.overhead": traced / untraced,
    }


def reconcile(name: str, tracer: Any, served: Any, launches: int,
              check: Any) -> None:
    """A traced serve against the exact counters it must agree with."""
    t = tracer
    run_s = t.total_s("decode.run")
    check.require(
        abs(t.run_tree_self - run_s) <= RECONCILE_TOLERANCE * run_s,
        f"self times under decode.run sum to {t.run_tree_self:.6f}s, "
        f"decode.run took {run_s:.6f}s",
    )
    check.require(
        t.calls("kernels.gather_mac") == launches,
        f"kernels.launches {t.calls('kernels.gather_mac')} != "
        f"kernel_cache_info delta {launches}",
    )
    result = served.result
    allocated = (result.paging or {}).get("blocks_allocated", 0)
    counted = t.counts.get("paging.blocks_allocated", 0)
    check.require(
        counted == allocated,
        f"paging.blocks_allocated {counted} != pool_info {allocated}",
    )
    spec = [g for g in result.results if hasattr(g, "drafted_tokens")]
    for key, total in (("spec.drafted", sum(g.drafted_tokens for g in spec)),
                       ("spec.accepted",
                        sum(g.accepted_tokens for g in spec))):
        check.require(
            t.counts.get(key, 0) == total,
            f"{key} {t.counts.get(key, 0)} != result total {total}",
        )
    if name == "decode-long":
        touched = [
            n for n in t.totals
            if n.startswith(("paging.", "spec."))
        ]
        check.require(not touched,
                      f"decode-long made paging/spec calls: {touched}")


def measure_traced(workload: Any, checked: Any, seconds: float,
                   check: Any) -> tuple[dict[str, float], Any]:
    """Untraced then traced serve of each unit in turn, round-robin.

    Returns the per-layer metrics (median over traced serves) and the
    first traced serve's tracer.
    """
    from repro.core.kernels import kernel_cache_info

    from perfbench.spans import Tracer, instrument

    backend = workload.engine.unit.backend.name
    per_rep: list[dict[str, float]] = []
    first_tracer = None
    n_units = len(workload.units)
    deadline = time.perf_counter() + seconds
    i = 0
    # at least one try per unit, even when every traced serve raises
    while i < n_units and not per_rep or time.perf_counter() < deadline:
        index = i % n_units
        i += 1
        plain = timed_serve(workload, index, check)
        if plain is None:
            continue
        same_rep(workload, index, plain[0], checked.served[index], check,
                 "untraced repetition")
        tracer = Tracer()
        before = kernel_cache_info()["backends"].get(
            backend, {}).get("launches", 0)
        with instrument(tracer):
            traced = timed_serve(workload, index, check, tracer)
        if traced is None:
            continue
        launches = kernel_cache_info()["backends"][backend][
            "launches"] - before
        same_rep(workload, index, traced[0], plain[0], check,
                 "traced repetition")
        reconcile(workload.name, tracer, traced[0], launches, check)
        per_rep.append(layer_metrics(tracer, traced[0], plain[1], traced[1]))
        if first_tracer is None:
            first_tracer = tracer
    keys = per_rep[0].keys() if per_rep else ()
    return {k: median([p[k] for p in per_rep]) for k in keys}, first_tracer


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no sources at {ROOT / 'src'}; run from a full "
            "checkout of the repository\n"
        )
        return 2
    engine, timing = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(timing))
        return 0

    from perfbench.workloads import WORKLOADS, Check

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](engine, args.seed)
    check = Check()
    checked = workload.virtual_pass(check)
    notes = list(checked.notes)
    if args.record_digest:
        if check.failed or check.problems:
            print("\n".join(check.problems), file=sys.stderr)
            return 1
        record_digests(args.workload, args.seed, checked.records)
        print(f"recorded {args.workload} seed {args.seed}")
        return 0
    check_digests(args.workload, args.seed, checked.records, check, notes)
    setups = [timing] + cold_setups(args.workload, args.seed)

    values: dict[str, float] = {}
    if args.trace:
        values, tracer = measure_traced(workload, checked, args.seconds,
                                        check)
        values["setup.import_s"] = median([s["import_s"] for s in setups])
        values["setup.session_s"] = median([s["session_s"] for s in setups])
        declared = spec["per_layer"]
        if tracer is not None:
            path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
            tracer.write_chrome_trace(path, {"workload": args.workload,
                                             "seed": args.seed})
            notes.append(f"Chrome trace of one traced serve: {path}")
    else:
        run = measure(workload, checked, args.seconds, check)
        values = dict(checked.metrics)
        values["tokens_per_s"] = run["tokens_per_s"]
        steps = run["steps"]
        values["step_ms_p50"] = 1000.0 * nearest_rank(steps, 50.0)
        values["step_ms_tail"] = 1000.0 * tail_mean(steps, TAIL_SHARE)
        values["setup_s"] = median([s["setup_s"] for s in setups])
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        declared = spec["end_to_end"]
        notes.append(
            f"{run['repetitions']} repetitions; step_ms over the "
            f"{len(steps)} scheduler iterations of the units, each the "
            f"median over its unit's repetitions (step_ms_tail is the "
            f"mean of the slowest {math.ceil(TAIL_SHARE * len(steps))}); "
            f"setup_s median of {len(setups)} cold set-ups"
        )

    failed_frac = check.failed / max(1, check.attempted)
    correct = not check.failed and not check.problems
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'failed_frac':34s} {failed_frac:14.6g} ratio")
    for line in notes:
        print(f"  note: {line}")
    for line in check.problems:
        print(f"  FAILED: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: measure, check, print one JSON line.

Run it through ``run.py``, which starts this file in a fresh process
with a clean environment.  Usage::

    bench.py --workload NAME --seed N --seconds S --trace 0|1

Both modes first run the negative controls and one warm-up round, all
checked and untimed.  ``--trace 0`` then repeats whole rounds (set-up,
preload, measured phase and verdict, then the untimed output check)
while the next round still fits in ``--seconds``, at least three, and
reports the medians of the end-to-end metrics.  ``--trace 1`` runs a
plain, a traced and another plain round of the same inputs and reports
the per-layer ledger of the traced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from repro import serde
from repro.crypto import fastpath

from check import check_round, negative_controls
from rounds import run_round
from layers import STAGES, LayerTracer
from workloads import SPECS, make_inputs

MIN_ROUNDS = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def native_backends() -> str:
    """Refuse to measure when the compiled fastpath or serde module (built
    on first import) is not the one in use."""
    backend = fastpath.active_backend()
    if not isinstance(backend, fastpath.CBackend):
        fail(f"fastpath fell back to {type(backend).__name__}")
    if not serde.native_backend_active():
        fail("serde fell back to the pure-Python codec")
    return f"fastpath={type(backend).__name__} serde=native"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(spec, inputs, seed: int) -> tuple[list, int]:
    """One checked but untimed round: fills the allocator's arenas and
    every lazy cache before the first measured round."""
    result = run_round(spec, inputs, seed)
    return check_round(result, inputs), result.done.kv_done


def measure(spec, inputs, seed: int, seconds: float) -> tuple[dict, list, int, int]:
    began = time.perf_counter()
    problems, warm_done = warm_up(spec, inputs, seed)
    rounds = []
    last = time.perf_counter() - began
    # stop before a round that would end past the time budget
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - began + last < seconds:
        round_began = time.perf_counter()
        result = run_round(spec, inputs, seed)
        problems += check_round(result, inputs)
        done = result.done
        rounds.append(
            {
                "setup_s": result.setup_s,
                "ops_per_s": done.kv_done / result.wall_s,
                "kv_done": done.kv_done,
                "wire": result.wire_bytes,
                "stored": result.stored_bytes,
            }
        )
        del result, done
        last = time.perf_counter() - round_began
    attempted = inputs.kv_operations() * (len(rounds) + 1)
    completed = warm_done + sum(entry["kv_done"] for entry in rounds)
    if len({(entry["wire"], entry["stored"]) for entry in rounds}) != 1:
        problems.append("wire or stored bytes differ between rounds of the same inputs")
    first = rounds[0]
    metrics = {
        "ops_per_s": metric(statistics.median(e["ops_per_s"] for e in rounds), "ops/s"),
        "setup_s": metric(statistics.median(e["setup_s"] for e in rounds), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
        "wire_bytes_per_op": metric(first["wire"] / max(first["kv_done"], 1), "B/op"),
        "stored_bytes_per_op": metric(first["stored"] / max(first["kv_done"], 1), "B/op"),
    }
    print(
        f"rounds {len(rounds)}: ops/s "
        + " ".join(f"{e['ops_per_s']:.1f}" for e in rounds)
        + " | setup_s "
        + " ".join(f"{e['setup_s']:.3f}" for e in rounds)
    )
    return metrics, problems, attempted, attempted - completed


def trace(spec, inputs, seed: int, generate_s: float) -> tuple[dict, list, int, int]:
    problems, warm_done = warm_up(spec, inputs, seed)

    def plain_round() -> tuple:
        plain = run_round(spec, inputs, seed)
        problems.extend(check_round(plain, inputs))
        return plain.wall_s, plain.done.kv_done, plain.provision_s, plain.load_s

    # plain rounds on both sides of the traced one, so that a drift of
    # the host's speed does not read as tracing overhead; the set-up
    # figures come from them too, as the traced round builds its cluster
    # with the program's stage probe on
    before = plain_round()
    tracer = LayerTracer()
    traced = run_round(spec, inputs, seed, tracer=tracer)
    problems += check_round(traced, inputs)
    kv_done = traced.done.kv_done
    del traced
    after = plain_round()
    plain_wall, _, provision_s, load_s = ((a + b) / 2 for a, b in zip(before, after))
    counts = tracer.counts
    s = tracer.seconds
    ledger = {
        "client.invoke_s": s("client.invoke"),
        "client.reply_s": s("client.reply"),
        "router.submit_self_s": s("router.submit"),
        "router.txn_self_s": s("router.txn"),
        "net.sim_self_s": s("net.sim"),
        "dispatch.self_s": s("dispatch"),
        "host.self_s": s("host"),
        "ecall.self_s": s("ecall"),
        "storage.store_s": s("storage"),
        "observer.harvest_s": s("observer"),
        "verdict.streaming_s": s("verdict.streaming"),
        "verdict.postmortem_self_s": s("verdict.postmortem"),
        "verdict.fork_linearizable_s": s("verdict.fork_linearizable"),
        "verdict.txn_check_s": s("verdict.txn_check"),
    }
    unattributed = tracer.wall_s - tracer.attributed_s()
    reconciled = sum(ledger.values()) + unattributed
    if abs(reconciled - tracer.wall_s) > 1e-6:
        problems.append(f"layer ledger {reconciled:.6f}s != traced wall {tracer.wall_s:.6f}s")
    batches = counts["dispatch.batches"]
    metrics = {name: metric(value, "s") for name, value in ledger.items()}
    metrics.update(
        {
            "client.invokes": metric(tracer.calls["client.invoke"], "count"),
            "router.requests": metric(counts["router.requests"], "count"),
            "router.txn_commits": metric(counts["router.txn_commits"], "count"),
            "router.txn_aborts": metric(counts["router.txn_aborts"], "count"),
            "net.events": metric(counts["net.events"], "count"),
            "net.messages": metric(counts["net.messages"], "count"),
            "net.bytes": metric(counts["net.bytes"], "B"),
            "dispatch.batches": metric(batches, "count"),
            "dispatch.ops_per_batch": metric(counts["dispatch.items"] / max(batches, 1), "ops/batch"),
            "ecall.s": metric(s("ecall", inclusive=True), "s"),
            "ecall.calls": metric(tracer.calls["ecall"], "count"),
            "storage.stores": metric(tracer.calls["storage"], "count"),
            "storage.physical_bytes": metric(counts["storage.physical_bytes"], "B"),
            "storage.logical_bytes": metric(counts["storage.logical_bytes"], "B"),
            "observer.harvests": metric(tracer.calls["observer"], "count"),
            "observer.retained_records_peak": metric(tracer.retained_peak, "count"),
            "verdict.postmortem_s": metric(s("verdict.postmortem", inclusive=True), "s"),
            "setup.provision_s": metric(provision_s, "s"),
            "setup.load_s": metric(load_s, "s"),
            "workload.generate_s": metric(generate_s, "s"),
            "trace.wall_s": metric(tracer.wall_s, "s"),
            "trace.unattributed_s": metric(unattributed, "s"),
            "trace.overhead": metric(tracer.wall_s / plain_wall, "ratio"),
        }
    )
    for stage in STAGES:
        metrics[f"ecall.{stage}_s"] = metric(tracer.stage_s[stage], "s")
    if tracer.stage_batches != batches:
        problems.append(f"{tracer.stage_batches} stage records for {batches} batches")
    attempted = 4 * inputs.kv_operations()
    completed = warm_done + before[1] + kv_done + after[1]
    return metrics, problems, attempted, attempted - completed


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = SPECS[args.workload]
    backends = native_backends()
    print(
        f"workload {spec.name} seed {args.seed} | python {platform.python_version()} "
        f"nproc {os.cpu_count()} | {backends} execution=serial"
    )
    began = time.perf_counter()
    inputs = make_inputs(spec, args.seed)
    generate_s = time.perf_counter() - began

    problems = negative_controls(spec, args.seed)
    if args.trace:
        metrics, found, attempted, failed = trace(spec, inputs, args.seed, generate_s)
    else:
        metrics, found, attempted, failed = measure(spec, inputs, args.seed, args.seconds)
    problems += found
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()

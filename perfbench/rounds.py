"""One measured round: set up a cluster, preload it, run the closed loop.

Every client is a single-threaded closed loop: it submits its next
request only from the completion callback of the previous one.  Plain
requests go through ``ShardRouter.submit``; transactions go through
``ShardRouter.submit_txn`` and are resubmitted after a deterministic
virtual-time stagger when they abort on a conflict.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.net.latency import LatencyModel
from repro.sharding import ShardedCluster, ShardRouter

from workloads import Inputs, Spec

#: an aborted transaction is retried this many times before its request
#: counts as failed
MAX_TXN_ATTEMPTS = 50


@dataclass
class Completions:
    """What the clients received, kept for the output check."""

    #: (shard, sequence) -> (client, operation, result) of plain requests
    plain: dict = field(default_factory=dict)
    #: committed transactions: (client, operations, TxnResult)
    txns: list = field(default_factory=list)
    requests_done: int = 0
    kv_done: int = 0
    exhausted: int = 0


def build(spec: Spec, seed: int, **cluster_options) -> tuple:
    cluster = ShardedCluster(
        shards=spec.shards,
        clients=spec.clients,
        seed=seed,
        execution="serial",
        streaming=spec.streaming,
        # the link model of the repository's wall-clock harnesses
        latency=LatencyModel(propagation=100e-6, jitter_fraction=0.2, seed=seed),
        **cluster_options,
    )
    return cluster, ShardRouter(cluster)


def drive(cluster, router, streams: dict, done: Completions | None = None) -> None:
    """Run every client's stream to its end as a closed loop."""
    interval = ShardedCluster.SERVICE_INTERVAL

    def start(client: int, stream) -> None:
        def pump(_result=None) -> None:
            item = next(stream, None)
            if item is None:
                return
            if done is None:  # preload: plain operations only
                router.submit(client, item, pump)
                return
            kind, body = item
            if kind == "op":
                router.submit(client, body, on_plain(body))
            else:
                run_txn(body, 0)

        def on_plain(operation):
            def complete(result) -> None:
                shard = router.owner(operation)
                done.plain[(shard, result.sequence)] = (client, operation, result.result)
                done.requests_done += 1
                done.kv_done += 1
                pump()

            return complete

        def run_txn(operations: list, attempt: int) -> None:
            def on_txn(result) -> None:
                if result.committed:
                    done.txns.append((client, operations, result))
                    done.requests_done += 1
                    done.kv_done += len(operations)
                    pump()
                elif attempt + 1 >= MAX_TXN_ATTEMPTS:
                    done.exhausted += 1
                    pump()
                else:
                    delay = interval * (1 + attempt) * (1.0 + 0.13 * client)
                    cluster.sim.schedule(
                        delay, lambda: run_txn(operations, attempt + 1)
                    )

            router.submit_txn(client, operations, on_txn)

        pump()

    for client, stream in streams.items():
        start(client, iter(stream))
    cluster.run()


def channels(cluster) -> list:
    """Every client<->shard channel, both directions.  The cluster keeps
    them on its per-shard runtime records; the benchmark only reads
    their counters."""
    return [
        channel
        for shard in cluster._shards.values()
        for channel in (*shard.up.values(), *shard.down.values())
    ]


def wire_bytes(cluster) -> int:
    return sum(channel.bytes_sent for channel in channels(cluster))


def stored_bytes(cluster) -> int:
    return sum(
        cluster.shard_host(shard).storage.physical_bytes()
        for shard in cluster.shard_ids
    )


@dataclass
class Round:
    cluster: object
    router: object
    verdict: object
    done: Completions
    provision_s: float
    load_s: float
    #: wall seconds of the measured phase plus the workload's verdict
    wall_s: float
    wire_bytes: int
    stored_bytes: int

    @property
    def setup_s(self) -> float:
        return self.provision_s + self.load_s


def run_round(spec: Spec, inputs: Inputs, seed: int, *, tracer=None) -> Round:
    """Set up, preload and run one round; ``tracer`` (a
    :class:`layers.LayerTracer`) is installed between preload and the
    measured phase and times that phase's layers."""
    gc.collect()
    began = time.perf_counter()
    cluster, router = build(spec, seed, tracing=tracer is not None)
    provisioned = time.perf_counter()
    drive(cluster, router, inputs.load)
    loaded = time.perf_counter()
    wire_before = wire_bytes(cluster)
    stored_before = stored_bytes(cluster)
    done = Completions()
    if tracer is not None:
        tracer.install(cluster, router)
    gc.collect()
    start = time.perf_counter()
    drive(cluster, router, inputs.requests, done)
    verdict = router.streaming_verdict() if spec.streaming else router.verdict()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall(wall)
    return Round(
        cluster=cluster,
        router=router,
        verdict=verdict,
        done=done,
        provision_s=provisioned - began,
        load_s=loaded - provisioned,
        wall_s=wall,
        wire_bytes=wire_bytes(cluster) - wire_before,
        stored_bytes=stored_bytes(cluster) - stored_before,
    )

"""Per-layer wall-clock ledger for the traced run.

The tracer wraps the public entry points of each layer on the live
objects of one cluster (instance attributes, so nothing in the program
changes) and keeps a stack of open calls.  A layer's *self* time is the
duration of its calls minus the part covered by wrapped calls nested
inside them, so the self times of all layers plus the time spent
outside every wrapped call (``trace.unattributed_s``) add up to the
traced wall time exactly.

Layers and the calls that enter them:

- ``net.sim``       ``Simulator.step`` (event loop and event glue)
- ``client.invoke`` ``AsyncLcmClient.invoke`` (seal and send an INVOKE)
- ``client.reply``  ``AsyncLcmClient.on_reply`` (open and verify a REPLY)
- ``router.submit`` ``ShardRouter.submit``/``submit_many`` and the
  router's completion callbacks of plain operations
- ``router.txn``    ``ShardRouter.submit_txn`` and the completion
  callbacks of transaction lifecycle operations
- ``dispatch``      ``GroupDispatcher.enqueue``/``maybe_dispatch``
- ``host``          ``ServerHost.send_invoke_batch``
- ``ecall``         ``Enclave.ecall("invoke_batch")``
- ``storage``       ``StableStorage.store``
- ``observer``      ``ClusterObserver.on_batch_boundary`` (the streaming
  verifier's harvest, including its audit-export ecalls)
- ``verdict.*``     ``streaming_verdict``, ``verdict`` and, inside the
  latter, ``check_cluster_execution`` and ``check_transaction_atomicity``
"""

from __future__ import annotations

import time
from collections import Counter

import repro.sharding.router as router_module

from rounds import channels, stored_bytes, wire_bytes

TXN_PREFIX = "__LCM_TXN_"
STAGES = ("unseal", "execute", "reply_seal", "state_seal")


def counters(cluster, router) -> dict:
    """The program's own work counters, summed over the cluster."""
    shards = [cluster._shards[shard] for shard in cluster.shard_ids]
    return {
        "router.requests": router.operations_submitted,
        "router.txn_commits": router.transactions_committed,
        "router.txn_aborts": router.transactions_aborted,
        "net.events": cluster.sim.events_processed,
        "net.messages": sum(channel.sent for channel in channels(cluster)),
        "net.bytes": wire_bytes(cluster),
        "dispatch.batches": sum(shard.dispatcher.batches for shard in shards),
        "dispatch.items": sum(shard.dispatcher.items for shard in shards),
        "storage.physical_bytes": stored_bytes(cluster),
        "storage.logical_bytes": sum(shard.host.storage.total_bytes() for shard in shards),
    }


class LayerTracer:
    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.stage_s: Counter = Counter()
        self.stage_batches = 0
        self.retained: dict = {}
        self.retained_peak = 0
        self._stack: list[int] = []
        self._undo: list = []
        self._last_stages = None
        self.wall_s = 0.0

    # ------------------------------------------------------------ wrapping

    def timed(self, layer: str, fn):
        stack = self._stack
        self_ns, inclusive_ns, calls = self.self_ns, self.inclusive_ns, self.calls
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            stack.append(0)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - began
                self_ns[layer] += elapsed - stack.pop()
                inclusive_ns[layer] += elapsed
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapped

    def _patch(self, owner, name: str, replacement) -> None:
        had = name in vars(owner)
        original = vars(owner).get(name)
        setattr(owner, name, replacement)
        self._undo.append((owner, name, had, original))

    def wrap(self, owner, name: str, layer: str) -> None:
        self._patch(owner, name, self.timed(layer, getattr(owner, name)))

    def install(self, cluster, router) -> None:
        self.cluster, self.router = cluster, router
        self._before = counters(cluster, router)
        self.wrap(cluster.sim, "step", "net.sim")
        for name in ("submit", "submit_many"):
            self.wrap(router, name, "router.submit")
        self.wrap(router, "submit_txn", "router.txn")
        self.wrap(router, "verdict", "verdict.postmortem")
        self.wrap(router, "streaming_verdict", "verdict.streaming")
        self.wrap(router_module, "check_cluster_execution", "verdict.fork_linearizable")
        self.wrap(router_module, "check_transaction_atomicity", "verdict.txn_check")
        self.wrap(cluster.observer, "on_batch_boundary", "observer")
        self._patch(cluster.tracer, "delivered", self._stages_hook(cluster.tracer.delivered))
        self._patch(cluster.observer, "harvest", self._retained_hook(cluster.observer.harvest))
        for shard in cluster.shard_ids:
            host = cluster.shard_host(shard)
            self.wrap(host, "send_invoke_batch", "host")
            self._patch(host.enclave, "ecall", self._ecall_hook(host.enclave.ecall))
            self.wrap(host.storage, "store", "storage")
            for machine in cluster.shard_clients(shard).values():
                self._patch(machine, "invoke", self._invoke_hook(machine.invoke))
                self.wrap(machine, "on_reply", "client.reply")
            dispatcher = cluster._shards[shard].dispatcher
            self.wrap(dispatcher, "enqueue", "dispatch")
            self.wrap(dispatcher, "maybe_dispatch", "dispatch")

    def uninstall(self, wall_s: float) -> None:
        self.wall_s = wall_s
        after = counters(self.cluster, self.router)
        self.counts = {name: after[name] - self._before[name] for name in after}
        for owner, name, had, original in reversed(self._undo):
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()

    # ---------------------------------------------------------------- hooks

    def _invoke_hook(self, invoke):
        timed_invoke = self.timed("client.invoke", invoke)
        submit_callback = lambda fn: self.timed("router.submit", fn)  # noqa: E731
        txn_callback = lambda fn: self.timed("router.txn", fn)  # noqa: E731

        def hooked(operation, on_complete):
            # the router's completion callback runs inside on_reply;
            # attribute it back to the router
            verb = operation[0]
            if type(verb) is str and verb.startswith(TXN_PREFIX):
                on_complete = txn_callback(on_complete)
            else:
                on_complete = submit_callback(on_complete)
            return timed_invoke(operation, on_complete)

        return hooked

    def _ecall_hook(self, ecall):
        timed_ecall = self.timed("ecall", ecall)

        def hooked(name, payload=None):
            if name == "invoke_batch":
                return timed_ecall(name, payload)
            return ecall(name, payload)

        return hooked

    def _stages_hook(self, delivered):
        def hooked(*args, stages=None, **kwargs):
            if stages is not None and stages is not self._last_stages:
                self._last_stages = stages
                self.stage_batches += 1
                for stage in STAGES:
                    self.stage_s[stage] += stages[stage]
            return delivered(*args, stages=stages, **kwargs)

        return hooked

    def _retained_hook(self, harvest):
        observer = self.cluster.observer

        def hooked(shard):
            outcome = harvest(shard)
            self.retained[shard.shard_id] = observer.retained_records(shard.shard_id)
            self.retained_peak = max(self.retained_peak, sum(self.retained.values()))
            return outcome

        return hooked

    # -------------------------------------------------------------- results

    def seconds(self, layer: str, *, inclusive: bool = False) -> float:
        source = self.inclusive_ns if inclusive else self.self_ns
        return source[layer] / 1e9

    def attributed_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

"""The benchmark's three fixed workloads and their seeded inputs.

Every input — the preload records, each client's request stream, the
transaction make-up — is generated here, from ``--seed``, before any
timed phase; the program under test only ever receives the generated
operations.  Each workload runs a fixed number of requests per round
(not a time limit), so a faster program never lengthens the history the
verdict has to check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.kvstore.kvs import get, put
from repro.workload.ycsb import WORKLOAD_A, WORKLOAD_B, Workload, WorkloadGenerator

#: records loaded through the protocol before every measured phase
RECORDS = 1000
#: YCSB key size (bytes) for every workload
KEY_SIZE = 40


@dataclass(frozen=True)
class Spec:
    """One workload: cluster shape, request mix and verdict entry point."""

    name: str
    shards: int
    clients: int
    workload: Workload
    #: logical requests per measured round (a transaction is one request)
    requests: int
    #: share of requests that are multi-key read-modify-write transactions
    txn_fraction: float = 0.0
    txn_size: int = 3
    #: streaming verifier on (verdict = ``streaming_verdict()``) or off
    #: (verdict = the post-mortem ``verdict()``)
    streaming: bool = True


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "ycsb-a-online",
            shards=4,
            clients=32,
            workload=WORKLOAD_A.with_params(value_size=100),
            requests=12000,
        ),
        Spec(
            "txn-audit",
            shards=2,
            clients=8,
            workload=WORKLOAD_A.with_params(distribution="uniform", value_size=100),
            requests=600,
            txn_fraction=0.3,
            streaming=False,
        ),
        Spec(
            "ycsb-b-large-state",
            shards=2,
            clients=16,
            workload=WORKLOAD_B.with_params(value_size=1000),
            requests=3000,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The generated operations of one workload and seed.

    ``load[c]`` and ``requests[c]`` are client ``c``'s preload and
    measured streams.  A measured request is ``("op", operation)`` or
    ``("txn", [operation, ...])``.
    """

    load: dict
    requests: dict

    def kv_operations(self) -> int:
        """User-level KV operations in one measured round (a transaction
        counts each of its sub-operations)."""
        return sum(
            len(body) if kind == "txn" else 1
            for stream in self.requests.values()
            for kind, body in stream
        )


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Preload and request streams for one seed.

    The mix is fixed, not drawn: every seed gets exactly the same number
    of reads, updates and transactions, in a seeded order, so that a
    seed changes which keys are hit and when, but never how much work of
    each kind a round holds.
    """
    workload = spec.workload.with_params(record_count=RECORDS, key_size=KEY_SIZE)
    generator = WorkloadGenerator(workload, seed=seed)
    clients = range(1, spec.clients + 1)
    records = generator.load_operations()
    load = {c: records[c - 1 :: spec.clients] for c in clients}
    txns = round(spec.requests * spec.txn_fraction)
    reads = round((spec.requests - txns) * workload.read_proportion)
    kinds = ["txn"] * txns + ["read"] * reads + ["update"] * (spec.requests - txns - reads)
    random.Random(seed * 7919 + 17).shuffle(kinds)

    def request(kind: str) -> tuple:
        if kind == "read":
            return "op", get(generator.sample_key())
        if kind == "update":
            return "op", put(generator.sample_key(), generator.value())
        keys: list[str] = []
        while len(keys) < spec.txn_size:
            key = generator.sample_key()
            if key not in keys:
                keys.append(key)
        # read-modify-write: alternate writes and reads over distinct
        # keys so every transaction both reads and writes
        return "txn", [
            put(key, generator.value()) if index % 2 == 0 else get(key)
            for index, key in enumerate(keys)
        ]

    flat = [request(kind) for kind in kinds]
    requests = {c: flat[c - 1 :: spec.clients] for c in clients}
    return Inputs(load=load, requests=requests)

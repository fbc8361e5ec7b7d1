"""Output checks, run after timing: a dict-model replay of every shard's
audit log, a completion check, and negative controls for the verdict.

The model is written here, independently of the program's key-value
functionality.  For plain GET/PUT it recomputes every result.  For the
transaction verbs it takes the vote *kind* a participant reported
(prepared, conflict, waiting) as given, checks that the kind is
consistent with the model's lock table, and recomputes everything that
carries data: the reads of a prepared transaction, and the writes that a
commit applies.
"""

from __future__ import annotations

from repro import serde
from repro.kvstore.functionality import (
    TXN_ABORT_VERB,
    TXN_ABORTED,
    TXN_ALREADY,
    TXN_COMMIT_VERB,
    TXN_COMMITTED,
    TXN_CONFLICT,
    TXN_DECIDE_MANY_VERB,
    TXN_LOCKED,
    TXN_PREPARE_MANY_VERB,
    TXN_PREPARE_VERB,
    TXN_PREPARED,
    TXN_UNKNOWN,
    TXN_WAITING,
)
from repro.kvstore.kvs import get, put

import rounds
from workloads import Spec


class Mismatch(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


class ShardModel:
    """A plain dict model of one shard's key-value state and locks."""

    def __init__(self) -> None:
        self.data: dict = {}
        self.locks: dict = {}      # key -> holder txn id
        self.pending: dict = {}    # txn id -> [(key, value) writes]
        self.waiting: dict = {}    # txn id -> sub-operations
        self.decided: dict = {}    # txn id -> "C" | "A"
        self.reads: dict = {}      # txn id -> {key: value read at prepare}

    def apply(self, operation: list, result) -> None:
        """Check one executed operation against the model and advance it."""
        verb = operation[0]
        if verb in ("GET", "PUT"):
            key = operation[1]
            holder = self.locks.get(key)
            if holder is not None:
                expected = [TXN_LOCKED, holder]
            else:
                expected = self.data.get(key)
                if verb == "PUT":
                    self.data[key] = operation[2]
            expect(result == expected, f"{verb} {key}: got {result!r}, model {expected!r}")
        elif verb == TXN_PREPARE_VERB:
            self.vote(operation[1], operation[2], result, may_wait=False)
        elif verb == TXN_PREPARE_MANY_VERB:
            expect(len(result) == len(operation[1]), "grouped prepare result length")
            for (txn_id, sub_ops), vote in zip(operation[1], result):
                self.vote(txn_id, sub_ops, vote, may_wait=True)
        elif verb in (TXN_COMMIT_VERB, TXN_ABORT_VERB):
            self.decide(operation[1], verb == TXN_COMMIT_VERB, result)
        elif verb == TXN_DECIDE_MANY_VERB:
            expect(len(result) == len(operation[1]), "grouped decision result length")
            for (txn_id, decision), ack in zip(operation[1], result):
                self.decide(txn_id, decision == "C", ack)
        else:
            raise Mismatch(f"unexpected verb {verb!r}")

    def vote(self, txn_id: str, sub_ops: list, vote: list, *, may_wait: bool) -> None:
        kind = vote[0]
        keys = [sub[1] for sub in sub_ops]
        if kind == TXN_PREPARED:
            expect(txn_id not in self.pending, f"{txn_id} prepared twice")
            expect(not any(key in self.locks for key in keys), f"{txn_id} prepared a locked key")
            overlay: dict = {}
            reads = []
            for sub in sub_ops:
                key = sub[1]
                reads.append(overlay[key] if key in overlay else self.data.get(key))
                if sub[0] == "PUT":
                    overlay[key] = sub[2]
                else:
                    expect(sub[0] == "GET", f"{txn_id}: unexpected sub-operation {sub[0]!r}")
            expect(vote[1] == reads, f"{txn_id} prepare read {vote[1]!r}, model {reads!r}")
            for key in keys:
                self.locks[key] = txn_id
            self.pending[txn_id] = [(sub[1], sub[2]) for sub in sub_ops if sub[0] == "PUT"]
            self.reads[txn_id] = dict(zip(keys, reads))
        elif kind == TXN_CONFLICT:
            holder = vote[1]
            expect(
                holder == txn_id or any(self.locks.get(key) == holder for key in keys),
                f"{txn_id} conflict with {holder}, which holds none of its keys",
            )
        elif kind == TXN_WAITING:
            holder = vote[1]
            expect(may_wait, f"{txn_id} queued on the single-prepare path")
            expect(
                txn_id > holder and any(self.locks.get(key) == holder for key in keys),
                f"{txn_id} queued behind {holder}, which holds none of its keys",
            )
            self.waiting[txn_id] = sub_ops
        else:
            raise Mismatch(f"{txn_id}: unexpected vote {vote!r}")

    def decide(self, txn_id: str, commit: bool, ack: list) -> None:
        if txn_id in self.pending:
            expect(ack[0] == (TXN_COMMITTED if commit else TXN_ABORTED), f"{txn_id} ack {ack!r}")
            writes = self.pending.pop(txn_id)
            for key in [key for key, holder in self.locks.items() if holder == txn_id]:
                del self.locks[key]
            if commit:
                for key, value in writes:
                    self.data[key] = value
            self.decided[txn_id] = "C" if commit else "A"
            for waiter, vote in ack[1] if len(ack) > 1 else ():
                expect(waiter in self.waiting, f"{waiter} resolved but never queued")
                self.vote(waiter, self.waiting.pop(waiter), vote, may_wait=False)
        elif txn_id in self.waiting and not commit:
            expect(ack == [TXN_ABORTED], f"{txn_id} dequeue ack {ack!r}")
            del self.waiting[txn_id]
            self.decided[txn_id] = "A"
        elif txn_id in self.decided:
            expect(ack == [TXN_ALREADY, self.decided[txn_id]], f"{txn_id} replay ack {ack!r}")
        else:
            expect(ack == [TXN_UNKNOWN], f"{txn_id} unknown-decision ack {ack!r}")


def check_round(result: rounds.Round, inputs) -> list[str]:
    """Every problem found in one round's outputs (empty when correct)."""
    problems: list[str] = []
    cluster, router, done = result.cluster, result.router, result.done
    expected_requests = sum(len(stream) for stream in inputs.requests.values())
    if done.requests_done != expected_requests or done.exhausted:
        problems.append(
            f"{done.requests_done}/{expected_requests} requests completed, "
            f"{done.exhausted} transactions exhausted their retries"
        )
    verdict = result.verdict
    if not verdict.ok or verdict.forked_shards:
        problems.append(f"verdict not clean: {verdict.violations} forked={verdict.forked_shards}")
    models = {}
    for shard in cluster.shard_ids:
        try:
            problems.extend(check_shard(cluster, shard, done, models))
        except Mismatch as mismatch:
            problems.append(f"shard {shard}: {mismatch}")
    for client, operations, txn in done.txns:
        for operation, value in zip(operations, txn.results or ()):
            owner = models.get(router.owner(operation))
            reads = owner.reads.get(txn.txn_id) if owner else None
            if reads is None or reads.get(operation[1], object()) != value:
                problems.append(f"{txn.txn_id}: client read {value!r}, model {reads!r}")
                break
        if txn.results is None or len(txn.results) != len(operations):
            problems.append(f"{txn.txn_id}: committed without one result per operation")
    return problems


def check_shard(cluster, shard: int, done, models: dict) -> list[str]:
    problems: list[str] = []
    logs = cluster.audit_logs(shard)
    expect(len(logs) == 1, f"{len(logs)} audit logs on an honest shard")
    (log,) = logs
    sequences = [record.sequence for record in log]
    expect(sequences == list(range(1, len(log) + 1)), "sequence numbers are not 1..n in order")
    model = models[shard] = ShardModel()
    per_client: dict = {}
    records = {}
    for record in log:
        operation = serde.decode(record.operation)
        result = serde.decode(record.result)
        if operation[0] in ("GET", "PUT"):
            expect(
                cluster.ring.owner(operation[1]) == shard,
                f"seq {record.sequence}: key {operation[1]} is not owned by this shard",
            )
        model.apply(operation, result)
        per_client.setdefault(record.client_id, []).append(record.sequence)
        records[record.sequence] = (record.client_id, operation, result)
    for client, machine in cluster.shard_clients(shard).items():
        seen = per_client.get(client, [])
        if len(seen) != machine.completed or (seen and seen[-1] != machine.last_sequence):
            problems.append(
                f"client {client}: {len(seen)} logged operations up to "
                f"{seen[-1] if seen else 0}, machine completed {machine.completed} "
                f"up to {machine.last_sequence}"
            )
    for (owner, sequence), (client, operation, value) in done.plain.items():
        if owner != shard:
            continue
        logged = records.get(sequence)
        if logged is None or logged[0] != client or logged[1] != list(operation):
            problems.append(f"seq {sequence}: client {client} got a reply for {operation!r}, log has {logged!r}")
        elif logged[2] != value:
            problems.append(f"seq {sequence}: client got {value!r}, log and model have {logged[2]!r}")
    return problems


def negative_controls(spec, seed: int) -> list[str]:
    """Small attacked runs that the workload's own verdict entry point
    must flag on the attacked shard 0 and nowhere else.

    Each control also states what detects its attack.  ``fork`` is seen
    by the verdict's checker alone: the two instances of the forked shard
    diverge and are never joined, so no context or client meets a
    conflict during the run, and the verdict must report the shard as
    forked.  ``fork-join`` and ``rollback`` are caught during the run:
    the client's sequence number is ahead of the context's row, the
    shard halts, and the verdict must report that violation.
    """
    entry = "streaming_verdict" if spec.streaming else "verdict"
    small = Spec(
        name=spec.name, shards=2, clients=3, workload=spec.workload, requests=0,
        streaming=spec.streaming,
    )
    problems: list[str] = []
    for name, attack, caught_live in CONTROLS:
        cluster, router = attack(small, seed)
        live = cluster.shard_violation(0)
        if (live is not None) != caught_live or cluster.shard_violation(1) is not None:
            problems.append(
                f"{name} control: shard violations during the run "
                f"{live!r} / {cluster.shard_violation(1)!r}, expected "
                f"{'one on shard 0' if caught_live else 'none'}"
            )
            continue
        verdict = getattr(router, entry)()
        if caught_live:
            flagged = list(verdict.violations) == [0] and not verdict.forked_shards
        else:
            flagged = not verdict.violations and verdict.forked_shards == [0]
        found = f"violations {sorted(verdict.violations)} forked {verdict.forked_shards}"
        if not flagged:
            problems.append(f"{name} control not flagged by {entry}(): {found}")
        print(
            f"control {name}: {'caught during the run' if caught_live else 'no live violation'}; "
            f"{entry}() reports {found}"
        )
    return problems


def victim_keys(cluster, seed: int, count: int) -> list[str]:
    keys = (f"control-{seed}-{index}" for index in range(10_000))
    return [key for key in keys if cluster.ring.owner(key) == 0][:count]


def forked(spec, seed: int) -> tuple:
    """Shard 0 forked after a common prefix; client 3 runs on the fork,
    clients 1 and 2 on the main instance, each side writes and reads."""
    cluster, router = rounds.build(spec, seed, malicious_shards=(0,))
    keys = victim_keys(cluster, seed, 3)
    for client in cluster.client_ids:
        router.submit(client, put(keys[0], f"base-{client}"))
    cluster.run()
    fork = cluster.fork_shard(0)
    cluster.route_client(0, 3, fork)
    router.submit(1, put(keys[1], "main-side"))
    router.submit(3, put(keys[2], "fork-side"))
    cluster.run()
    router.submit(2, get(keys[1]))
    router.submit(3, get(keys[1]))
    cluster.run()
    return cluster, router


def fork_joined(spec, seed: int) -> tuple:
    """The fork above, after which the host joins the forks back."""
    cluster, router = forked(spec, seed)
    cluster.route_client(0, 3, 0)
    router.submit(3, get(victim_keys(cluster, seed, 1)[0]))
    cluster.run()
    return cluster, router


def rolled_back(spec, seed: int) -> tuple:
    """An honest shard restarted from its first sealed state."""
    cluster, router = rounds.build(spec, seed)
    keys = victim_keys(cluster, seed, 2)
    for index, key in enumerate(keys):
        router.submit(1, put(key, str(index)))
    cluster.run()
    host = cluster.shard_host(0)
    host.storage.rollback_to(0)
    host.reboot()
    router.submit(1, get(keys[0]))
    cluster.run()
    return cluster, router


#: (name, attack, caught during the run rather than by the verdict alone)
CONTROLS = (
    ("fork", forked, False),
    ("fork-join", fork_joined, True),
    ("rollback", rolled_back, True),
)

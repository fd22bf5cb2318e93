"""A channel message lands under the exact calendar key its sender
reserved.

Byte identity between ``--shards 1`` and ``--shards N`` holds only while
a peer's packet or ACK is inserted at its original ``(when, seq)`` and
the receiving kernel consumes no sequence number of its own for it. A
receiver that scheduled with ``call_at`` instead would shift every later
local sequence number; on the shipped specs the reordering it causes can
stay invisible in the results, so the key itself is pinned here.
"""

from repro.scenario.schema import build_topology, validate
from repro.scenario.templates import template
from repro.shard.kernel import ShardKernel
from repro.topo.partition import partition

WINDOW_NS = 600.0
HORIZON_NS = 30_000.0


def test_injected_messages_keep_their_reserved_key():
    normal = validate(template("all-to-all-storage"))
    plan = partition(build_topology(normal), 2)
    assert plan.n_shards == 2 and plan.lookahead >= WINDOW_NS
    kernels = [ShardKernel(normal, plan, i) for i in range(2)]
    inboxes = [[], []]
    kinds = set()
    now = 0.0
    while now < HORIZON_NS:
        now += WINDOW_NS
        outboxes = []
        for kernel, inbox in zip(kernels, inboxes):
            sim = kernel.sim
            for msg in inbox:
                _dst, kind, when, seq, _payload = msg
                before = sim._seq
                kernel.inject(msg)
                assert sim._seq == before, msg
                assert any(e[0] == when and e[1] == seq
                           for e in sim._queue), msg
                kinds.add(kind)
            outboxes.append(kernel.advance(now)[1])
        inboxes = [[], []]
        for out in outboxes:
            for msg in out:
                inboxes[msg[0]].append(msg)
    assert kinds == {"pkt", "ack"}

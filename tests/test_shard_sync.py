"""Property tests for the scatter-gather + idle-skip sync engine.

The claim under test (docs/PERFORMANCE.md "Megascale"): the optimized
epoch loop — batched inject, idle-epoch skipping, and (on the parallel
path) scatter-gather worker exchange — produces summaries
byte-identical to the plain PR 6-style reference loop, across random
topologies, zone→shard packings, sync windows, message delays, echo
depths, and non-uniform shard start clocks.

The reference loop below is deliberately naive: one round per grid
epoch, no skipping, sequential inject/advance/drain in shard order.
It shares the multiplicative epoch grid with the production loop so
both compute bit-identical boundary floats (an accumulated ``t +=
window`` drifts for non-representable windows, which would be a float
artifact, not a sync-engine difference).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.shard import ShardRunner, _route, run_epochs, run_sharded

LOOKAHEAD = 1.0
HORIZON = 30.0
ECHO_DELAY = LOOKAHEAD + 0.25


def reference_epochs(shards, owner, window, until):
    """The PR 6 loop: every grid round executed, no skipping."""
    inboxes = {}
    t0 = min(s.env.now for s in shards)
    t = t0
    k = 0
    while t < until:
        k += 1
        t_next = min(t0 + k * window, until)
        mail = []
        for idx, shard in enumerate(shards):
            shard.inject(inboxes.get(idx, ()))
            shard.advance_to(t_next)
            mail.extend(shard.drain_outbox())
        inboxes = _route(mail, owner)
        t = t_next
    assert not any(inboxes.values())


def _build_shard(spec):
    """One shard hosting ``spec['zones']``; every zone logs receipts
    and echoes messages back to their sender while hops remain."""
    env = Environment(initial_time=spec["clock"])
    runner = ShardRunner(spec["shard"], env, lookahead=LOOKAHEAD)
    runner.log = []
    zones = set(spec["zones"])

    def handler(msg):
        runner.log.append((env.now, msg.dst, msg.src, msg.payload))
        value, hops = msg.payload
        if hops > 0:
            runner.post(msg.dst, msg.src, "msg", (value, hops - 1),
                        delay=ECHO_DELAY)

    runner.on("msg", handler)
    for zone, sends in spec["sends"]:
        assert zone in zones
        for t, extra, dst, value, hops in sends:
            env.defer(
                lambda _z=zone, _d=dst, _v=value, _h=hops, _e=extra: runner.post(
                    _z, _d, "msg", (_v, _h), delay=LOOKAHEAD + _e
                ),
                t,
            )
    return runner


def _finalize(runner):
    return {
        "shard": runner.shard_id,
        "log": tuple(runner.log),
        "delivered": runner.delivered,
        "events": runner.env.event_count,
        "now": runner.env.now,
    }


@st.composite
def topologies(draw):
    """(specs, owner, window): a random sharded world."""
    n_zones = draw(st.integers(min_value=2, max_value=4))
    packing = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=n_zones,
            max_size=n_zones,
        )
    )
    # normalize shard ids to consecutive ints in first-seen order
    ids = {}
    for s in packing:
        ids.setdefault(s, len(ids))
    owner = {z: ids[s] for z, s in enumerate(packing)}
    delay = st.floats(min_value=0.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False)
    send = st.tuples(
        st.floats(min_value=0.0, max_value=6.0,
                  allow_nan=False, allow_infinity=False),  # defer instant
        delay,                                             # extra transit
        st.integers(min_value=0, max_value=n_zones - 1),   # destination
        st.integers(min_value=0, max_value=99),            # payload value
        st.integers(min_value=0, max_value=2),             # echo hops
    )
    sends = {
        z: draw(st.lists(send, max_size=5)) for z in range(n_zones)
    }
    # Non-uniform start clocks, bounded well below the lookahead so a
    # message can never deliver into a late-starting shard's past.
    clocks = {
        s: draw(
            st.floats(min_value=0.0, max_value=0.4,
                      allow_nan=False, allow_infinity=False)
        )
        for s in set(owner.values())
    }
    specs = [
        {
            "shard": s,
            "clock": clocks[s],
            "zones": [z for z, zs in owner.items() if zs == s],
            "sends": [
                (z, sends[z]) for z in sorted(owner) if owner[z] == s
            ],
        }
        for s in sorted(set(owner.values()))
    ]
    window = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25]))
    return specs, owner, window


@given(topology=topologies())
@settings(deadline=None, max_examples=60)
def test_optimized_loop_matches_reference(topology):
    """Idle-skip + batched inject ≡ the naive reference, byte for byte."""
    specs, owner, window = topology
    shards = [_build_shard(s) for s in specs]
    reference_epochs(shards, owner, window, HORIZON)
    expected = [_finalize(s) for s in shards]

    shards = [_build_shard(s) for s in specs]
    stats = run_epochs(shards, owner, window, HORIZON)
    assert [_finalize(s) for s in shards] == expected
    # nothing over- or under-counted: run + skipped covers the exact
    # grid the reference loop walks (computed with the same float ops)
    t0 = min(s["clock"] for s in specs)
    total, t = 0, t0
    while t < HORIZON:
        total += 1
        t = min(t0 + total * window, HORIZON)
    assert stats.epochs_run + stats.epochs_skipped == total


@given(topology=topologies())
@settings(deadline=None, max_examples=8)
def test_scatter_gather_workers_match_reference(topology):
    """The same loop over worker proxies — scatter-gather pipes,
    worker-side next-event times — is byte-identical too.  Few
    examples: each spawns one process per shard."""
    specs, owner, window = topology
    shards = [_build_shard(s) for s in specs]
    reference_epochs(shards, owner, window, HORIZON)
    expected = [_finalize(s) for s in shards]

    parallel = run_sharded(
        _build_shard,
        specs,
        owner,
        window=window,
        until=HORIZON,
        finalize=_finalize,
        jobs=len(specs),
    )
    assert parallel == expected

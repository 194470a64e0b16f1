"""Sharded DES: conservative time-window synchronization across shards.

One :class:`~repro.sim.core.Environment` tops out around 10k devices;
the megascale kernel partitions the simulation into *shards* — each a
self-contained Environment owning a set of *zones* (AP group + cluster
node + device population) — and advances them epoch by epoch under a
**conservative sync window**:

- every cross-zone interaction travels as a :class:`ShardMessage` with
  an explicit ``deliver_at`` timestamp;
- every message is posted with ``delay >= lookahead`` (the minimum
  cross-shard link latency), so a message sent anywhere inside epoch
  ``[kW, (k+1)W)`` is deliverable no earlier than ``(k+1)W``;
- the epoch loop advances every shard to the epoch boundary, exchanges
  outboxes, and injects each shard's inbox *before* the next epoch —
  the receiving shard's clock never has to rewind (the classic
  conservative / lookahead discipline).

Shard evolution is a pure function of ``(spec, inbox sequence)`` and
inboxes are routed in a deterministic order.  One loop,
:func:`run_epochs`, drives in-process shards and the proxies of worker
processes (one persistent worker per shard, over pipes) alike, so
``jobs > 1`` produces summaries byte-identical to the serial run — the
same jobs=1 ≡ jobs=N discipline :mod:`repro.experiments.engine` proves
for cells.  And because same-shard messages ride the identical epoch
mechanism, the *shard count* does not perturb results either: a
two-zone simulation is byte-identical run as one shard or two.

Two optimizations ride the epoch loop without perturbing one byte
(see docs/PERFORMANCE.md "Megascale" for the argument):

- **Scatter-gather epochs** — each round starts every shard's epoch
  before gathering any outbox; a worker proxy's start only sends the
  request, so all N worker shards advance concurrently.  Outboxes are
  gathered and routed in shard order either way.
- **Adaptive idle-epoch skipping** — after a round that produced no
  mail (and therefore queued no inboxes), every event the simulation
  will ever see is already on some shard's heap; the loop jumps
  straight to the epoch whose window contains the earliest such event
  (``Environment.peek``) instead of grinding through provably empty
  sync barriers.

Example
-------
>>> from repro.sim import Environment
>>> from repro.sim.shard import ShardRunner, run_epochs
>>> log = []
>>> a = ShardRunner(0, Environment(), lookahead=1.0)
>>> b = ShardRunner(1, Environment(), lookahead=1.0)
>>> b.on("ping", lambda msg: log.append((b.env.now, msg.payload)))
>>> _ = a.env.defer(lambda: a.post(src=0, dst=1, kind="ping",
...                               payload="hello", delay=1.5), delay=0.25)
>>> stats = run_epochs([a, b], owner={0: 0, 1: 1}, window=1.0, until=10.0)
>>> log
[(1.75, 'hello')]
>>> (stats.epochs_run, stats.epochs_skipped)  # 7 idle barriers elided
(3, 7)
"""

from __future__ import annotations

import math
import pickle
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .events import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = [
    "CausalityError",
    "EpochStats",
    "ShardMessage",
    "ShardRunner",
    "run_epochs",
    "run_sharded",
    "sync_window",
]

#: total worker-join budget at teardown — shared across all workers,
#: not per process, so an errored run never lingers for N x timeout
_SHUTDOWN_GRACE_S = 2.0

#: exceptions that mean "no worker pool here" (sandboxed interpreter,
#: fork limits, unpicklable spec/payload) rather than a modelling or
#: worker failure: only these trigger the serial fallback
_POOL_UNAVAILABLE = (
    ImportError,
    OSError,
    ValueError,
    pickle.PicklingError,
    AttributeError,
    TypeError,
)


class CausalityError(SimulationError):
    """A cross-shard message would arrive in the receiver's past."""


@dataclass
class EpochStats:
    """Sync-engine counters for one sharded run.

    ``epochs_run``/``epochs_skipped`` are deterministic (identical for
    jobs=1 and jobs=N by construction) and are mirrored into each
    shard's metrics registry as ``shard.epochs_run`` /
    ``shard.epochs_skipped`` when observability is attached.
    ``sync_wall_s`` is real wall-clock the loop spent at the gather
    (blocked on worker replies; ≈0 for in-process shards) —
    nondeterministic by nature, so it lives here and in experiment
    reports, never in the metrics registry.
    """

    epochs_run: int = 0
    epochs_skipped: int = 0
    sync_wall_s: float = 0.0

    def reset(self) -> None:
        """Zero every counter (each :func:`run_epochs` call starts here)."""
        self.epochs_run = 0
        self.epochs_skipped = 0
        self.sync_wall_s = 0.0


@dataclass(frozen=True)
class ShardMessage:
    """One timestamped message between zones (possibly across shards).

    ``src``/``dst`` are *zone* ids (the modelling unit), not shard
    indices — the zone → shard mapping is routing detail, so the same
    message stream is produced no matter how zones are packed into
    shards.  ``seq`` is a per-source monotonic counter; together with
    ``deliver_at`` and ``src`` it gives every inbox a total order that
    is identical across shard counts and job counts.
    """

    src: int
    dst: int
    sent_at: float
    deliver_at: float
    kind: str
    payload: Any
    seq: int

    def sort_key(self):
        """Deterministic delivery order within one receiving inbox."""
        return (self.deliver_at, self.src, self.seq)


def _deliver_batch(batch: Sequence[Tuple[ShardMessage, Callable]]) -> None:
    """Run a same-instant group of handlers in inbox order."""
    for msg, handler in batch:
        handler(msg)


class ShardRunner:
    """One shard: an Environment plus message I/O with lookahead.

    Handlers are registered per message ``kind`` and run as plain
    callbacks at the message's ``deliver_at`` instant (they may spawn
    processes).  :meth:`post` enforces the conservative contract —
    ``delay >= lookahead`` — at the *sender*, and :meth:`inject`
    re-checks it at the *receiver*, so a violation is an immediate
    :class:`CausalityError` instead of a silently rewritten clock.
    """

    def __init__(self, shard_id: int, env: "Environment", lookahead: float):
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        self.shard_id = shard_id
        self.env = env
        self.lookahead = float(lookahead)
        self._handlers: Dict[str, Callable[[ShardMessage], None]] = {}
        self._outbox: List[ShardMessage] = []
        self._seqs: Dict[int, int] = {}
        #: messages delivered into this shard (sync observability)
        self.delivered = 0

    # -- wiring ---------------------------------------------------------------
    def on(self, kind: str, handler: Callable[[ShardMessage], None]) -> None:
        """Register the callback for one message kind."""
        self._handlers[kind] = handler

    # -- sending --------------------------------------------------------------
    def post(
        self, src: int, dst: int, kind: str, payload: Any, delay: float
    ) -> ShardMessage:
        """Queue a message from zone ``src`` to zone ``dst``.

        ``delay`` is the modelled transit time (link latency + wire
        time); the conservative window demands ``delay >= lookahead``.
        """
        if delay < self.lookahead:
            raise CausalityError(
                f"message {kind!r} {src}->{dst} posted with delay {delay!r} "
                f"below the lookahead {self.lookahead!r}"
            )
        seq = self._seqs.get(src, 0)
        self._seqs[src] = seq + 1
        msg = ShardMessage(
            src=src,
            dst=dst,
            sent_at=self.env.now,
            deliver_at=self.env.now + delay,
            kind=kind,
            payload=payload,
            seq=seq,
        )
        self._outbox.append(msg)
        return msg

    def drain_outbox(self) -> List[ShardMessage]:
        """Take (and clear) every message queued since the last drain."""
        out, self._outbox = self._outbox, []
        return out

    # -- receiving ------------------------------------------------------------
    def inject(self, messages: Sequence[ShardMessage]) -> None:
        """Schedule delivery of an epoch's inbox (sorted by the caller).

        Delivery is bulk-scheduled: consecutive messages sharing one
        ``deliver_at`` instant ride a single kernel event instead of
        one ``defer`` closure each.  Handler order is unchanged — the
        group runs in inbox order, and any event a handler schedules
        lands behind the whole group on the heap either way.
        """
        if not messages:
            return
        now = self.env.now
        pending: List[Tuple[ShardMessage, Callable]] = []
        for msg in messages:
            if msg.deliver_at < now:
                raise CausalityError(
                    f"message {msg.kind!r} {msg.src}->{msg.dst} delivers at "
                    f"{msg.deliver_at!r} but the shard clock is already {now!r}"
                )
            handler = self._handlers.get(msg.kind)
            if handler is None:
                raise KeyError(f"shard {self.shard_id}: no handler for {msg.kind!r}")
            self.delivered += 1
            pending.append((msg, handler))
        i, n = 0, len(pending)
        while i < n:
            at = pending[i][0].deliver_at
            j = i + 1
            while j < n and pending[j][0].deliver_at == at:
                j += 1
            batch = pending[i:j]
            self.env.defer_at(lambda _b=batch: _deliver_batch(_b), at)
            i = j

    # -- advancing ------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Run the shard's environment up to simulated time ``t``.

        A no-op when the shard's clock is already at or past ``t``
        (a shard built with a later ``initial_time`` joins the epoch
        grid once the boundaries catch up to its clock).
        """
        if t > self.env.now:
            self.env.run(until=t)

    # -- the epoch protocol (what run_epochs drives) ---------------------------
    def start_clock(self) -> float:
        """The shard's clock before its first epoch."""
        return self.env.now

    def begin_epoch(self, t_next: float, inbox: Sequence[ShardMessage]) -> None:
        """Deliver an epoch's inbox and run the shard up to ``t_next``."""
        if inbox:
            self.inject(inbox)
        self.advance_to(t_next)

    def end_epoch(self) -> Tuple[List[ShardMessage], float]:
        """The epoch's outbox and the time of the shard's next event."""
        return self.drain_outbox(), self.env.peek()

    def note_epochs(self, stats: EpochStats) -> None:
        """Mirror the deterministic epoch counters into the shard's metrics."""
        obs = getattr(self.env, "obs", None)
        metrics = None if obs is None else obs.metrics
        if metrics is not None:
            metrics.counter("shard.epochs_run").inc(stats.epochs_run)
            metrics.counter("shard.epochs_skipped").inc(stats.epochs_skipped)


def sync_window(min_cross_latency: float, window: Optional[float] = None) -> float:
    """The conservative sync window for a given cross-shard lookahead.

    The window may be at most the minimum cross-shard transit delay —
    any larger and a message sent late in an epoch could land inside
    the same epoch, behind the receiver's clock.  ``window=None``
    returns the largest safe window (fewest sync barriers).
    """
    if min_cross_latency <= 0:
        raise ValueError("min_cross_latency must be positive")
    if window is None:
        return min_cross_latency
    if not 0 < window <= min_cross_latency:
        raise ValueError(
            f"window {window!r} must be in (0, {min_cross_latency!r}] "
            "(the minimum cross-shard transit delay)"
        )
    return window


def _route(
    messages: List[ShardMessage], owner: Mapping[int, int]
) -> Dict[int, List[ShardMessage]]:
    """Bucket an epoch's mail per receiving shard, deterministically."""
    by_shard: Dict[int, List[ShardMessage]] = {}
    for msg in messages:
        by_shard.setdefault(owner[msg.dst], []).append(msg)
    for inbox in by_shard.values():
        inbox.sort(key=ShardMessage.sort_key)
    return by_shard


# -- the idle-epoch skip rule -------------------------------------------------

def _skip_to(k: int, t0: float, window: float, min_peek: float, until: float) -> int:
    """Next round index after a mail-less epoch round ``k``.

    Rounds live on the grid ``t0 + i*window`` (multiplied, never
    accumulated, so serial and parallel agree bit-for-bit on every
    boundary); round ``i`` advances shards to ``min(t0 + i*window,
    until)``.  After a round that produced no mail, no inbox is
    pending and every future event already sits on some shard's heap,
    so every round strictly before the one containing ``min_peek`` is
    provably empty: same inboxes (none), same events (none), same
    outboxes (none).  Jump straight to it.

    An event at exactly a grid boundary fires during the round that
    *ends* there (``Environment.run`` processes events at the
    horizon), hence the ``ceil - 1``: the next executed round must end
    at or after ``min_peek`` and start strictly before it.  The guard
    loop absorbs float rounding in the division — when in doubt it
    skips one round fewer, which costs an empty barrier but can never
    reorder an event into the wrong epoch.
    """
    target = min(min_peek, until)
    k_next = math.ceil((target - t0) / window) - 1
    while k_next > k and t0 + k_next * window >= target:
        k_next -= 1
    return max(k, k_next)


def run_epochs(
    shards: Sequence[Any],
    owner: Mapping[int, int],
    window: float,
    until: float,
    stats: Optional[EpochStats] = None,
) -> EpochStats:
    """The conservative epoch loop, for in-process and worker shards alike.

    ``shards`` speak :class:`ShardRunner`'s epoch protocol
    (``start_clock``, ``begin_epoch``, ``end_epoch``, ``note_epochs``);
    :func:`run_sharded`'s worker proxies speak it over a pipe.  Each
    round starts every shard's epoch with its inbox, then gathers every
    outbox and next-event time, both in shard order: worker shards
    advance concurrently between the two, and mail is routed in one
    deterministic order either way.  ``owner`` maps zone id → shard
    index.  Rounds that provably do nothing — no pending inbox and no
    shard event inside their window — are skipped via :func:`_skip_to`.
    Returns (and fills, when given) an :class:`EpochStats`.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    stats = stats if stats is not None else EpochStats()
    stats.reset()
    if not shards:
        return stats
    inboxes: Dict[int, List[ShardMessage]] = {}
    t0 = min(s.start_clock() for s in shards)
    t = t0
    k = 0
    while t < until:
        k += 1
        t_next = min(t0 + k * window, until)
        for idx, shard in enumerate(shards):
            shard.begin_epoch(t_next, inboxes.get(idx, ()))
        wall0 = time.perf_counter()
        mail: List[ShardMessage] = []
        peeks: List[float] = []
        for shard in shards:
            outbox, peek = shard.end_epoch()
            mail.extend(outbox)
            peeks.append(peek)
        stats.sync_wall_s += time.perf_counter() - wall0
        inboxes = _route(mail, owner)
        stats.epochs_run += 1
        t = t_next
        if t < until and not mail:
            k_next = _skip_to(k, t0, window, min(peeks), until)
            stats.epochs_skipped += k_next - k
            k = k_next
    # Mail still in flight at the horizon is a modelling bug upstream:
    # surface it rather than dropping messages on the floor.
    if any(inboxes.values()):
        pending = sum(len(v) for v in inboxes.values())
        raise SimulationError(
            f"{pending} cross-shard message(s) undelivered at the horizon "
            f"{until!r}; extend the run or shrink the workload"
        )
    for shard in shards:
        shard.note_epochs(stats)
    return stats


def _shard_worker(conn, build, spec, finalize, obs_flags) -> None:
    """Persistent worker: one shard, driven over a pipe by its
    :class:`_WorkerShard` proxy.

    Protocol: after building, the worker announces ``("ready",
    start_clock)`` so the parent can align the epoch grid on the true
    minimum start clock.  Then ``("epoch", t_next, inbox)`` → begin
    and end the epoch, reply ``("ok", outbox, peek)``;
    ``("note_epochs", stats)`` → mirror the epoch counters, no reply;
    ``("finalize",)`` → reply ``("done", summary, obs_snapshots)`` and
    exit.  Any exception is shipped back as ``("error", traceback)``
    so the parent can raise instead of hanging.
    """
    from .. import obs as obs_mod

    try:
        obs_mod.disable_auto()  # fork may have inherited parent auto state
        if obs_flags is not None:
            obs_mod.enable_auto(*obs_flags)
        shard = build(spec)
        conn.send(("ready", shard.start_clock()))
        while True:
            req = conn.recv()
            if req[0] == "epoch":
                shard.begin_epoch(req[1], req[2])
                conn.send(("ok", *shard.end_epoch()))
            elif req[0] == "note_epochs":
                shard.note_epochs(req[1])
            elif req[0] == "finalize":
                conn.send(("done", finalize(shard), obs_mod.drain()))
                return
            else:  # pragma: no cover - protocol guard
                raise ValueError(f"unknown request {req[0]!r}")
    except BaseException:  # pragma: no cover - ships to parent
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        obs_mod.disable_auto()
        conn.close()


class _WorkerShard:
    """Parent-side proxy for one shard built and run in a worker process.

    Speaks :class:`ShardRunner`'s epoch protocol over a pipe, so
    :func:`run_epochs` drives it like an in-process shard.
    ``begin_epoch`` only sends the request and ``end_epoch`` reads the
    reply, so every worker advances while the loop is still scattering.
    A worker that dies or fails raises :class:`SimulationError`, never
    a silent serial fallback.
    """

    def __init__(self, ctx, idx: int, build, spec, finalize, obs_flags):
        self.idx = idx
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker, args=(child, build, spec, finalize, obs_flags)
        )
        self.proc.start()
        child.close()

    def send(self, request: tuple) -> None:
        try:
            self.conn.send(request)
        except BrokenPipeError as exc:
            raise SimulationError(
                f"shard {self.idx} worker died mid-run ({exc!r})"
            ) from exc

    def recv(self) -> tuple:
        try:
            reply = self.conn.recv()
        except EOFError as exc:
            raise SimulationError(
                f"shard {self.idx} worker died mid-run ({exc!r})"
            ) from exc
        if reply[0] == "error":
            raise SimulationError(
                f"shard {self.idx} worker failed:\n{reply[1].rstrip()}"
            )
        return reply

    def start_clock(self) -> float:
        """The build handshake: wait for the worker's shard clock."""
        return self.recv()[1]

    def begin_epoch(self, t_next: float, inbox: Sequence[ShardMessage]) -> None:
        self.send(("epoch", t_next, inbox))

    def end_epoch(self) -> Tuple[List[ShardMessage], float]:
        _, outbox, peek = self.recv()
        return outbox, peek

    def note_epochs(self, stats: EpochStats) -> None:
        self.send(("note_epochs", stats))


def _shutdown(workers: Sequence[_WorkerShard]) -> None:
    """Drain, close, and reap every worker without lingering.

    On the error path some pipes still hold unanswered epoch requests
    (the scatter already went out) and a worker mid-reply may be
    blocked writing a large outbox; draining pending data unblocks the
    write, and closing the parent end turns every later worker
    ``recv``/``send`` into EOF so the loop exits on its own.  Joins
    share one grace budget; stragglers are terminated, then killed.
    """
    for w in workers:
        try:
            while w.conn.poll(0):
                w.conn.recv()
        except (EOFError, OSError):
            pass
    for w in workers:
        try:
            w.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    deadline = time.monotonic() + _SHUTDOWN_GRACE_S
    for w in workers:
        w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
    stragglers = [w.proc for w in workers if w.proc.is_alive()]
    for proc in stragglers:  # pragma: no cover - defensive
        proc.terminate()
    for proc in stragglers:  # pragma: no cover - defensive
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)


def _run_sharded_mp(build, specs, owner, window, until, finalize, stats) -> List[Any]:
    """Parallel path: one persistent worker process per shard, driven
    by :func:`run_epochs` through :class:`_WorkerShard` proxies."""
    import multiprocessing as mp

    from .. import obs as obs_mod

    flags = obs_mod.auto_flags()
    ctx = mp.get_context()
    workers: List[_WorkerShard] = []
    try:
        for idx, spec in enumerate(specs):
            workers.append(_WorkerShard(ctx, idx, build, spec, finalize, flags))
        run_epochs(workers, owner, window, until, stats=stats)
        for w in workers:
            w.send(("finalize",))
        summaries: List[Any] = []
        for w in workers:
            _, summary, snaps = w.recv()
            obs_mod.absorb(snaps)  # shard order == serial environment order
            summaries.append(summary)
        return summaries
    finally:
        _shutdown(workers)


def run_sharded(
    build: Callable[[Any], ShardRunner],
    specs: Sequence[Any],
    owner: Mapping[int, int],
    window: float,
    until: float,
    finalize: Callable[[ShardRunner], Any],
    jobs: int = 0,
    stats: Optional[EpochStats] = None,
) -> List[Any]:
    """Build, run, and summarize every shard; summaries in shard order.

    ``build(spec)`` constructs one shard from a picklable spec;
    ``finalize(shard)`` reduces it to a picklable summary after the
    horizon.  ``jobs <= 1`` builds and runs every shard in-process;
    ``jobs > 1`` runs one persistent worker process per shard (the
    epoch barrier needs bidirectional exchange, so shards cannot share
    pool workers).  :func:`run_epochs` drives both, so they produce
    identical summaries.  ``stats``, when given, is filled with the
    run's :class:`EpochStats`.  A negative ``jobs`` is a
    :class:`ValueError`.

    If the worker pool itself is unavailable (sandboxed interpreter,
    unpicklable spec or payload) the run falls back to the serial path
    with a one-line :class:`RuntimeWarning` naming the cause; worker
    crashes and modelling errors surface as :class:`SimulationError`
    and are never masked by the fallback.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    specs = list(specs)
    if not specs:
        return []
    window = sync_window(window)
    if jobs > 1:
        try:
            return _run_sharded_mp(build, specs, owner, window, until, finalize,
                                   stats)
        except SimulationError:
            raise  # a modelling or worker error, not a pool failure
        except _POOL_UNAVAILABLE as exc:
            warnings.warn(
                f"sharded worker pool unavailable ({exc!r}); "
                f"running {len(specs)} shard(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
    shards = [build(spec) for spec in specs]
    run_epochs(shards, owner, window, until, stats=stats)
    return [finalize(shard) for shard in shards]

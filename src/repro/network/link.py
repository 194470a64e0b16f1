"""Network link model: latency, asymmetric bandwidth, jitter, loss.

The paper evaluates LAN WiFi / WAN WiFi / 3G / 4G (§VI-A).  A
:class:`Link` computes transfer times for uploads (device → cloud) and
downloads (cloud → device) and exposes a process-style ``transmit`` for
use inside the simulation.

Instability is modeled as lognormal latency jitter plus i.i.d. packet
loss causing retransmission rounds — enough structure to reproduce the
paper's qualitative finding that 3G's latency/bandwidth dominate
offloading response for file-heavy workloads (Fig. 10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional

import numpy as np

from ..obs import DEFAULT_COUNT_BUCKETS, metrics_of, trace_span

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from ..sim.events import Event

__all__ = ["Link", "FlowLink", "FluidChannel", "Mbps", "MTU_BYTES"]

#: One megabit per second, in bytes/second.
Mbps = 1e6 / 8.0
MTU_BYTES = 1500


class _Flow:
    """One transfer in flight on a :class:`FluidChannel`."""

    __slots__ = ("remaining", "bps", "done", "tenant")

    def __init__(self, remaining: float, bps: float, done: "Event", tenant: str = ""):
        self.remaining = remaining  # wire bytes left to move
        self.bps = bps  # rate this flow would get alone
        self.done = done
        self.tenant = tenant  # owning app id ("" = untagged)


class FluidChannel:
    """Fair-share fluid model of a shared medium.

    ``n`` concurrent flows each progress at ``bps / n`` — equal airtime,
    like a WiFi AP radio.  Rather than chunking transfers, progress is
    re-apportioned *analytically* whenever the flow set changes, and a
    single timer is armed for the earliest finisher.  Events therefore
    fire only at flow arrivals and departures: O(flows), not
    O(flows × chunks), and no convoy of per-transfer timeouts.

    Stale timers are invalidated by an epoch counter (the same pattern
    as the GPS scheduler in :mod:`repro.hostos.cpu`).  Finishing flows
    are identified *at arm time* with the exact float expression used
    for the minimum, so completion is exact — no epsilon tests against
    drifted byte counts.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._flows: List[_Flow] = []  # FIFO arrival order
        self._last = env.now  # when progress was last settled
        self._epoch = 0  # bumps on every flow-set change
        #: high-water mark of concurrent flows (contention observability)
        self.peak_flows = 0

    # -- kernel of the model ------------------------------------------------
    def _shares(self):
        """Per-flow airtime fractions under per-tenant fair share.

        Returns None on the default path — equal split per *flow*, the
        legacy model — which is taken whenever no
        :class:`~repro.platform.tenancy.TenancyManager` enforces
        per-tenant airtime or no flow is tenant-tagged.  Otherwise
        airtime is split per *tenant* (weighted, optionally capped with
        deterministic water-filling), then equally among a tenant's
        flows — so opening more concurrent flows buys a hog nothing.
        Untagged flows count as singleton tenants of weight 1.
        """
        tenancy = getattr(self.env, "tenancy", None)
        if tenancy is None:
            return None
        cfg = tenancy.cfg
        if not (cfg.enforce and cfg.per_tenant_airtime):
            return None
        flows = self._flows
        if not any(f.tenant for f in flows):
            return None
        groups: dict = {}
        for i, f in enumerate(flows):
            key = f.tenant if f.tenant else ("", i)
            groups.setdefault(key, []).append(i)

        def weight(key) -> float:
            return cfg.weight_of(key) if isinstance(key, str) else 1.0

        alloc: dict = {}
        cap = cfg.airtime_cap
        if cap is None:
            total_w = sum(weight(k) for k in groups)
            for k in groups:
                alloc[k] = weight(k) / total_w
        else:
            # Water-filling: clamp over-cap tenants, redistribute the
            # rest by weight until no tenant exceeds the cap.  Airtime
            # a fully-capped population leaves unused stays unused —
            # that is what a cap means.
            active = sorted(groups, key=str)
            remaining = 1.0
            while active:
                total_w = sum(weight(k) for k in active)
                over = [k for k in active if remaining * weight(k) / total_w > cap]
                if not over:
                    for k in active:
                        alloc[k] = remaining * weight(k) / total_w
                    break
                for k in over:
                    alloc[k] = cap
                    remaining -= cap
                    active.remove(k)
        shares = [0.0] * len(flows)
        for key, idxs in groups.items():
            share = alloc[key] / len(idxs)
            for i in idxs:
                shares[i] = share
        return shares

    def _settle(self) -> None:
        """Apply progress accrued since the last flow-set change."""
        now = self.env.now
        dt = now - self._last
        if dt > 0.0 and self._flows:
            shares = self._shares()
            if shares is None:
                n = len(self._flows)
                for f in self._flows:
                    f.remaining -= dt * f.bps / n
                tenancy = getattr(self.env, "tenancy", None)
                if tenancy is not None:
                    for f in self._flows:
                        if f.tenant:
                            tenancy.account_airtime(f.tenant, dt / n)
            else:
                tenancy = self.env.tenancy
                for f, share in zip(self._flows, shares):
                    f.remaining -= dt * f.bps * share
                    if f.tenant:
                        tenancy.account_airtime(f.tenant, dt * share)
        self._last = now

    def _arm(self) -> None:
        """Schedule one wake-up at the earliest flow completion."""
        self._epoch += 1
        flows = self._flows
        if not flows:
            return
        shares = self._shares()
        if shares is None:
            n = len(flows)
            dt = min(f.remaining * n / f.bps for f in flows)
            # Capture finishers with the same expression that produced
            # the minimum: float-exact, immune to rounding drift.
            finishers = [f for f in flows if f.remaining * n / f.bps == dt]
        else:
            dt = min(
                f.remaining / (f.bps * s) for f, s in zip(flows, shares)
            )
            finishers = [
                f for f, s in zip(flows, shares) if f.remaining / (f.bps * s) == dt
            ]
        epoch = self._epoch
        timer = self.env.timeout(max(dt, 0.0))
        timer.add_callback(lambda _ev: self._wake(epoch, finishers))

    def _wake(self, epoch: int, finishers: List[_Flow]) -> None:
        if epoch != self._epoch:
            return  # flow set changed since this timer was armed
        self._settle()
        for f in finishers:
            f.remaining = 0.0
            self._flows.remove(f)
        self._arm()
        for f in finishers:
            f.done.succeed()

    # -- public API ---------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def add(self, nbytes: float, bps: float, tenant: str = "") -> _Flow:
        """Start a flow; its ``done`` event fires when the bytes drain."""
        self._settle()
        flow = _Flow(float(nbytes), float(bps), self.env.event(), tenant)
        if nbytes <= 0.0:
            flow.done.succeed()
            return flow
        self._flows.append(flow)
        if len(self._flows) > self.peak_flows:
            self.peak_flows = len(self._flows)
        self._arm()
        return flow

    def cancel(self, flow: _Flow) -> None:
        """Remove an in-flight flow (interrupted transfer)."""
        if flow in self._flows:
            self._settle()
            self._flows.remove(flow)
            self._arm()


class Link:
    """A bidirectional mobile-device-to-cloud network path."""

    def __init__(
        self,
        name: str,
        latency_s: float,
        up_bw_bps: float,
        down_bw_bps: float,
        jitter_sigma: float = 0.0,
        loss_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        handshake_rounds: int = 2,
        shared_medium: bool = False,
    ):
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        if up_bw_bps <= 0 or down_bw_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError("loss_rate must be in [0, 1)")
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        self.name = name
        self.latency_s = latency_s
        self.up_bw_bps = up_bw_bps
        self.down_bw_bps = down_bw_bps
        if handshake_rounds < 1:
            raise ValueError("handshake_rounds must be >= 1")
        self.jitter_sigma = jitter_sigma
        self.loss_rate = loss_rate
        #: per-message latency rounds (TCP slow-start approximation)
        self.handshake_rounds = handshake_rounds
        self.rng = rng or np.random.default_rng(0)
        #: when True, concurrent transmissions share the medium's
        #: airtime fairly (one radio channel per AP, fluid model)
        self.shared_medium = shared_medium
        self._channel: Optional[FluidChannel] = None
        #: goodput — application bytes delivered
        self.bytes_up = 0
        self.bytes_down = 0
        #: wire traffic — goodput plus loss-driven retransmissions
        self.wire_bytes_up = 0
        self.wire_bytes_down = 0
        #: EWMA smoothing for the observed-condition estimators
        self.obs_alpha = 0.3
        #: observed end-to-end goodput per direction (bytes/s over the
        #: full transfer including latency, contention and loss), None
        #: until the first transfer completes
        self._goodput_ewma: Dict[str, Optional[float]] = {"up": None, "down": None}
        #: observed round-trip time, None until the first handshake
        self._rtt_ewma: Optional[float] = None

    # -- deterministic cost model ------------------------------------------------
    def one_way_delay(self) -> float:
        """Sampled one-way latency (jittered)."""
        if self.jitter_sigma == 0.0:
            return self.latency_s
        return self.latency_s * float(self.rng.lognormal(0.0, self.jitter_sigma))

    def rtt(self) -> float:
        """Sampled round-trip time (two jittered one-way delays)."""
        return self.one_way_delay() * 2

    def expected_transfer_time(self, nbytes: float, direction: str) -> float:
        """Mean transfer time ignoring jitter/loss — for client-side estimates."""
        bw = self._bw(direction)
        return self.latency_s * self.handshake_rounds + nbytes / bw

    def _bw(self, direction: str) -> float:
        if direction == "up":
            return self.up_bw_bps
        if direction == "down":
            return self.down_bw_bps
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")

    def _effective_bytes(self, nbytes: float) -> float:
        """Bytes on the wire after retransmissions from packet loss."""
        if self.loss_rate == 0.0 or nbytes == 0:
            return nbytes
        packets = max(1, int(np.ceil(nbytes / MTU_BYTES)))
        # Each packet transmitted Geometric(1-p) times on average; sample
        # the aggregate with a binomial retransmission cascade.
        total_packets = 0
        pending = packets
        rounds = 0
        while pending > 0 and rounds < 64:
            total_packets += pending
            pending = int(self.rng.binomial(pending, self.loss_rate))
            rounds += 1
        return nbytes * total_packets / packets

    # -- timed transfer -------------------------------------------------------------
    def _channel_for(self, env: "Environment") -> FluidChannel:
        if self._channel is None or self._channel.env is not env:
            self._channel = FluidChannel(env)
        return self._channel

    @property
    def active_flows(self) -> int:
        """Transfers currently sharing the medium (0 for dedicated links)."""
        return self._channel.active_flows if self._channel is not None else 0

    @property
    def peak_flows(self) -> int:
        """Most transfers ever sharing the medium at once."""
        return self._channel.peak_flows if self._channel is not None else 0

    def transmit(
        self, env: "Environment", nbytes: float, direction: str, tenant: str = ""
    ) -> Generator:
        """Process generator: move ``nbytes`` across the link.

        Time = jittered one-way latency + wire time (with loss-driven
        retransmissions).  On a shared medium the wire time stretches
        with contention: concurrent flows split the bandwidth fairly
        (fluid model, see :class:`FluidChannel`).  ``bytes_up/down``
        count goodput; ``wire_bytes_up/down`` include retransmissions.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        bw = self._bw(direction)
        wire_bytes = self._effective_bytes(nbytes)
        latency = self.one_way_delay() * self.handshake_rounds
        with trace_span(env, "transfer", who=f"{self.name}/{direction}"):
            if self.shared_medium:
                start = env.now
                yield env.timeout(latency)
                channel = self._channel_for(env)
                flow = channel.add(wire_bytes, bw, tenant)
                metrics = metrics_of(env)
                if metrics is not None:
                    metrics.gauge("link.active_flows").set(channel.active_flows)
                    metrics.histogram(
                        "link.concurrent_flows", bounds=DEFAULT_COUNT_BUCKETS
                    ).observe(channel.active_flows)
                try:
                    yield flow.done
                except BaseException:
                    # Interrupted mid-flight: free our share of the medium.
                    channel.cancel(flow)
                    raise
                duration = env.now - start
            else:
                duration = latency + wire_bytes / bw
                yield env.timeout(duration)
        if nbytes > 0 and duration > 0:
            self._observe_goodput(direction, nbytes / duration)
        if direction == "up":
            self.bytes_up += int(nbytes)
            self.wire_bytes_up += int(wire_bytes)
        else:
            self.bytes_down += int(nbytes)
            self.wire_bytes_down += int(wire_bytes)
        metrics = metrics_of(env)
        if metrics is not None:
            metrics.counter(f"link.bytes_{direction}").inc(float(nbytes))
            metrics.counter(f"link.wire_bytes_{direction}").inc(float(wire_bytes))
        return duration

    def connect(self, env: "Environment") -> Generator:
        """Process generator: TCP-style connection establishment (1 RTT
        handshake + half-RTT for the first request to land)."""
        start = env.now
        yield env.timeout(self.rtt() + self.one_way_delay())
        # The handshake took 1.5 jittered RTTs end to end — two thirds
        # of the elapsed time is one observed round trip.
        elapsed = env.now - start
        if elapsed > 0:
            self._observe_rtt(elapsed * (2.0 / 3.0))

    # -- observed conditions (EWMA, fed by completed activity) ----------------
    def _observe_goodput(self, direction: str, bytes_per_s: float) -> None:
        prev = self._goodput_ewma[direction]
        if prev is None:
            self._goodput_ewma[direction] = bytes_per_s
        else:
            a = self.obs_alpha
            self._goodput_ewma[direction] = (1.0 - a) * prev + a * bytes_per_s

    def _observe_rtt(self, rtt_s: float) -> None:
        if self._rtt_ewma is None:
            self._rtt_ewma = rtt_s
        else:
            a = self.obs_alpha
            self._rtt_ewma = (1.0 - a) * self._rtt_ewma + a * rtt_s

    def observed_goodput(self, direction: str) -> float:
        """Observed end-to-end goodput (bytes/s) for one direction.

        EWMA over completed transfers — so contention on a shared
        medium, loss-driven retransmissions and latency all show up —
        falling back to the nominal bandwidth before any transfer has
        completed.  Decision engines read this; nothing on the timed
        path does, so observing is free.
        """
        nominal = self._bw(direction)  # validates the direction too
        ewma = self._goodput_ewma[direction]
        return ewma if ewma is not None else nominal

    def observed_rtt_s(self) -> float:
        """Observed round-trip time, falling back to ``2 * latency_s``."""
        return self._rtt_ewma if self._rtt_ewma is not None else 2.0 * self.latency_s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Link {self.name} lat={self.latency_s * 1e3:.1f}ms "
            f"up={self.up_bw_bps / Mbps:.2f}Mbps down={self.down_bw_bps / Mbps:.2f}Mbps>"
        )


class FlowLink(Link):
    """A :class:`Link` whose medium is always shared.

    Convenience for access-point-style topologies — many devices hang
    off one radio and split its airtime (the scale experiment models
    each AP as one FlowLink).
    """

    def __init__(self, *args, **kwargs):
        kwargs["shared_medium"] = True
        super().__init__(*args, **kwargs)

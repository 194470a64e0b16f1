"""Block / memory storage devices with bandwidth and latency.

Two devices matter for the paper's results:

- the server **HDD** (300 GB, §V) — where VM images and container
  rootfs layers live, and where *Exclusive Offloading I/O* lands;
- **tmpfs** — the in-memory file system backing Rattrap's *Sharing
  Offloading I/O* layer (§IV-C), orders of magnitude faster.

VM disk access additionally pays an I/O-virtualization tax
(``virt_overhead``), which is why VirusScan — the I/O-heavy workload —
sees the largest container-vs-VM compute speedup in Fig. 9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..sim.monitor import RateTracker
from ..sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

__all__ = ["StorageDevice", "hdd", "tmpfs", "MB"]

MB = 1024 * 1024


class StorageDevice:
    """A storage device processing transfers FIFO through one channel.

    A transfer of ``nbytes`` takes ``latency + nbytes / bandwidth``
    seconds of channel time.  Concurrent requests queue (single
    channel), which creates the short I/O plateaus visible in Fig. 2
    when several VMs boot together.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        read_bw_mbps: float,
        write_bw_mbps: float,
        latency_s: float,
        capacity_bytes: float = float("inf"),
    ):
        if read_bw_mbps <= 0 or write_bw_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        self.env = env
        self.name = name
        self.read_bw = read_bw_mbps * MB  # bytes/s
        self.write_bw = write_bw_mbps * MB
        self.latency = latency_s
        self.capacity_bytes = capacity_bytes
        self._channel = Resource(env, capacity=1)
        self.tracker = RateTracker(env, name)
        self.bytes_stored = 0.0

    # -- capacity accounting --------------------------------------------------
    def allocate(self, nbytes: float) -> None:
        """Claim persistent capacity on the device."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.bytes_stored + nbytes > self.capacity_bytes:
            raise IOError(
                f"{self.name}: allocating {nbytes} B exceeds capacity "
                f"({self.bytes_stored}/{self.capacity_bytes})"
            )
        self.bytes_stored += nbytes

    def deallocate(self, nbytes: float) -> None:
        """Release previously allocated capacity."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes > self.bytes_stored + 1e-6:
            raise ValueError(f"{self.name}: deallocating more than stored")
        self.bytes_stored = max(0.0, self.bytes_stored - nbytes)

    # -- timed transfers ---------------------------------------------------------
    def service_time(self, nbytes: float, op: str) -> float:
        """Channel time for one transfer: latency + bytes/bandwidth."""
        bw = self.read_bw if op == "read" else self.write_bw
        return self.latency + nbytes / bw

    def read(self, nbytes: float, virt_overhead: float = 1.0) -> Generator:
        """Process generator: read ``nbytes``; yields until complete."""
        return self._transfer(nbytes, "read", virt_overhead)

    def write(self, nbytes: float, virt_overhead: float = 1.0) -> Generator:
        """Process generator: write ``nbytes``; yields until complete."""
        return self._transfer(nbytes, "write", virt_overhead)

    def _transfer(self, nbytes: float, op: str, virt_overhead: float) -> Generator:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if virt_overhead < 1.0:
            raise ValueError("virt_overhead is a multiplier >= 1")
        with self._channel.request() as req:
            if not req.triggered:  # queued behind another transfer
                yield req
            yield self.env.timeout(self.service_time(nbytes, op) * virt_overhead)
        if op == "read":
            self.tracker.read(nbytes)
        else:
            self.tracker.write(nbytes)

    def batch(
        self,
        n_ops: int,
        bytes_per_op: int,
        op: str = "read",
        virt_overhead: float = 1.0,
    ) -> Generator:
        """Process generator: ``n_ops`` small operations as one channel hold.

        Random-access workloads (VirusScan's database searches) pay the
        per-op latency ``n_ops`` times; batching them under a single
        channel acquisition models one process's I/O burst.
        """
        if n_ops < 0 or bytes_per_op < 0:
            raise ValueError("n_ops and bytes_per_op must be >= 0")
        if virt_overhead < 1.0:
            raise ValueError("virt_overhead is a multiplier >= 1")
        if n_ops == 0:
            return
        with self._channel.request() as req:
            if not req.triggered:  # queued behind another transfer
                yield req
            per_op = self.service_time(bytes_per_op, op)
            yield self.env.timeout(n_ops * per_op * virt_overhead)
        total = n_ops * bytes_per_op
        if op == "read":
            self.tracker.read(total)
        else:
            self.tracker.write(total)

    @property
    def queue_length(self) -> int:
        return self._channel.queue_length


def hdd(env: "Environment", capacity_gb: float = 300.0) -> StorageDevice:
    """The servers' 7.2k-rpm HDD (§V): ~140 MB/s sequential, ~8 ms seek."""
    return StorageDevice(
        env,
        name="hdd",
        read_bw_mbps=140.0,
        write_bw_mbps=120.0,
        latency_s=0.008,
        capacity_bytes=capacity_gb * 1024 * MB,
    )


def tmpfs(env: "Environment", capacity_mb: float = 2048.0) -> StorageDevice:
    """In-memory fs for Sharing Offloading I/O: ~3 GB/s, ~microsecond latency."""
    return StorageDevice(
        env,
        name="tmpfs",
        read_bw_mbps=3000.0,
        write_bw_mbps=2500.0,
        latency_s=5e-6,
        capacity_bytes=capacity_mb * MB,
    )

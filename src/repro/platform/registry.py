"""Container-image registry and distribution (§VIII future work).

The paper plans to "explore the possibility of Rattrap implemented on
Docker, which may bring about the real just-in-time provision of Cloud
Android Container", and cites Slacker [15] for fast distribution with
lazy container pulls.  This module models that pipeline:

- an :class:`ImageRegistry` stores content-addressed layers;
- an :class:`ImagePuller` provisions a server with an image over a
  datacenter backbone link, deduplicating layers already on disk;
- pulls are **eager** (whole image before start — stock Docker) or
  **lazy** (Slacker: fetch only the startup working set synchronously,
  stream the rest in the background).

Slacker's measurement — containers need ~6.4 % of their image data to
start — is the default ``startup_fraction``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..hostos.server import CloudServer
    from ..sim.core import Environment

__all__ = [
    "ImageLayer",
    "ContainerImage",
    "ImageRegistry",
    "ImagePuller",
    "PullReport",
    "SLACKER_STARTUP_FRACTION",
]

#: Slacker (FAST'16): median container reads 6.4 % of its image to start.
SLACKER_STARTUP_FRACTION = 0.064


@dataclass(frozen=True)
class ImageLayer:
    """One content-addressed image layer."""

    digest: str
    size_bytes: int
    description: str = ""

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("layer size must be >= 0")
        if not self.digest:
            raise ValueError("layer needs a digest")


def _digest(payload: str) -> str:
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ContainerImage:
    """A named, tagged stack of layers (bottom first)."""

    name: str
    tag: str
    layers: Tuple[ImageLayer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError(f"image {self.reference} has no layers")
        digests = [l.digest for l in self.layers]
        if len(set(digests)) != len(digests):
            raise ValueError(f"image {self.reference} repeats a layer")

    @property
    def reference(self) -> str:
        return f"{self.name}:{self.tag}"

    @property
    def total_bytes(self) -> int:
        return sum(l.size_bytes for l in self.layers)


class ImageRegistry:
    """Content-addressed registry shared by every server in a cluster."""

    def __init__(self) -> None:
        self._images: Dict[str, ContainerImage] = {}
        self._layers: Dict[str, ImageLayer] = {}
        self.pull_count = 0

    def push(self, image: ContainerImage) -> None:
        """Publish an image; layers dedup by digest."""
        if image.reference in self._images:
            raise ValueError(f"image {image.reference} already pushed")
        self._images[image.reference] = image
        for layer in image.layers:
            existing = self._layers.get(layer.digest)
            if existing is not None and existing.size_bytes != layer.size_bytes:
                raise ValueError(f"digest collision for {layer.digest}")
            self._layers[layer.digest] = layer

    def manifest(self, reference: str) -> ContainerImage:
        """The image for a reference (KeyError if unknown)."""
        try:
            return self._images[reference]
        except KeyError:
            raise KeyError(f"unknown image {reference!r}") from None

    def has_image(self, reference: str) -> bool:
        """Is the reference pushed?"""
        return reference in self._images

    def images(self) -> List[str]:
        """Sorted pushed image references."""
        return sorted(self._images)

    @property
    def stored_bytes(self) -> int:
        """Registry storage: each layer once, shared across images."""
        return sum(l.size_bytes for l in self._layers.values())


@dataclass
class PullReport:
    """Outcome of provisioning one image onto one server."""

    reference: str
    mode: str
    fetched_bytes: int
    deduplicated_bytes: int
    time_to_ready_s: float
    background_bytes: int = 0


class ImagePuller:
    """Provisions container images onto a server from a registry.

    ``backbone_bw_mbps`` models the datacenter network between the
    registry and the server (far faster than client links).
    """

    def __init__(
        self,
        server: "CloudServer",
        registry: ImageRegistry,
        backbone_bw_mbps: float = 1000.0,
        backbone_latency_s: float = 0.001,
    ):
        if backbone_bw_mbps <= 0:
            raise ValueError("backbone bandwidth must be positive")
        if backbone_latency_s < 0:
            raise ValueError("backbone latency must be >= 0")
        self.server = server
        self.registry = registry
        self.backbone_bw = backbone_bw_mbps * 1e6 / 8.0  # bytes/s
        self.backbone_latency_s = backbone_latency_s
        #: layer digests already present on this server's disk
        self._local_layers: Set[str] = set()

    def has_layer(self, digest: str) -> bool:
        """Is the layer already on this server's disk?"""
        return digest in self._local_layers

    def _transfer_time(self, nbytes: float) -> float:
        return self.backbone_latency_s + nbytes / self.backbone_bw

    def pull(
        self,
        reference: str,
        mode: str = "eager",
        startup_fraction: float = SLACKER_STARTUP_FRACTION,
    ) -> Generator:
        """Process generator: provision ``reference`` onto the server.

        Returns a :class:`PullReport`; ``time_to_ready_s`` is when a
        container could start from the image (everything fetched for
        eager pulls; just the startup working set for lazy ones).
        """
        if mode not in ("eager", "lazy"):
            raise ValueError(f"mode must be 'eager' or 'lazy', got {mode!r}")
        if not (0.0 < startup_fraction <= 1.0):
            raise ValueError("startup_fraction must be in (0, 1]")
        env = self.server.env
        image = self.registry.manifest(reference)
        self.registry.pull_count += 1
        start = env.now

        missing = [l for l in image.layers if l.digest not in self._local_layers]
        dedup_bytes = image.total_bytes - sum(l.size_bytes for l in missing)
        fetch_bytes = sum(l.size_bytes for l in missing)

        if mode == "eager" or fetch_bytes == 0:
            if fetch_bytes:
                yield env.timeout(self._transfer_time(fetch_bytes))
                yield env.process(self.server.disk.write(fetch_bytes))
            self._register(missing)
            return PullReport(
                reference=reference,
                mode=mode,
                fetched_bytes=fetch_bytes,
                deduplicated_bytes=dedup_bytes,
                time_to_ready_s=env.now - start,
            )

        # Lazy: fetch the startup working set synchronously...
        sync_bytes = int(fetch_bytes * startup_fraction)
        rest = fetch_bytes - sync_bytes
        if sync_bytes:
            yield env.timeout(self._transfer_time(sync_bytes))
            yield env.process(self.server.disk.write(sync_bytes))
        ready_at = env.now
        # ...and stream the remainder in the background.
        if rest:
            bg = env.process(self._background_fetch(rest, missing))
            bg.defused = True
        else:
            self._register(missing)
        return PullReport(
            reference=reference,
            mode=mode,
            fetched_bytes=sync_bytes,
            deduplicated_bytes=dedup_bytes,
            background_bytes=rest,
            time_to_ready_s=ready_at - start,
        )

    def _background_fetch(self, nbytes: int, layers: List[ImageLayer]) -> Generator:
        env = self.server.env
        yield env.timeout(self._transfer_time(nbytes))
        yield env.process(self.server.disk.write(nbytes))
        self._register(layers)

    def _register(self, layers: List[ImageLayer]) -> None:
        for layer in layers:
            self._local_layers.add(layer.digest)
            self.server.disk.allocate(layer.size_bytes)


def cac_image(optimized: bool = True) -> ContainerImage:
    """The Cloud Android Container image as layers.

    The optimized image stacks the shared customized-OS base under a
    thin config layer, mirroring the Shared Resource Layer split.
    """
    MB = 1024 * 1024
    if optimized:
        layers = (
            ImageLayer(_digest("cac-base-customized-os"), int(274 * MB),
                       "customized Android (shared base)"),
            ImageLayer(_digest("cac-offload-agent"), int(5 * MB),
                       "offloadcontroller + init config"),
            ImageLayer(_digest("cac-instance-config"), int(2 * MB),
                       "per-deployment configuration"),
        )
        return ContainerImage("rattrap/cac", "optimized", layers)
    layers = (
        ImageLayer(_digest("android-rootfs-full"), int(1040 * MB),
                   "full Android 4.4 rootfs (no kernel)"),
        ImageLayer(_digest("cac-offload-agent"), int(5 * MB),
                   "offloadcontroller + init config"),
    )
    return ContainerImage("rattrap/cac", "non-optimized", layers)


__all__.append("cac_image")

"""OS customization: strip the Android image down to the offloading subset.

§IV-B3: "Rattrap customizes the composition of OS to replace the
original Android as the mobile cloud environment ... designed to
support offloaded codes only".  Concretely:

1. drop every category offloaded code never touches (hardware drivers,
   firmware, built-in apps, UI/telephony stacks);
2. drop kernel/ramdisk artifacts — containers share the host kernel;
3. keep the needed framework/runtime/libraries;
4. fake the interfaces of stripped-but-still-invoked services.

The result is packaged as a sealed :class:`~repro.unionfs.Layer` that
becomes the Shared Resource Layer's read-only base for *all* Cloud
Android Containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from ..unionfs import Layer
from .image import AndroidImage
from .services import FAKED_INTERFACES, OFFLOAD_INIT_SERVICES

__all__ = ["CustomizedOS", "StripReport", "customize_os"]


@dataclass
class StripReport:
    """What OS customization removed and kept."""

    kept_bytes: int
    stripped_bytes: int
    kept_files: int
    stripped_files: int
    stripped_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def original_bytes(self) -> int:
        return self.kept_bytes + self.stripped_bytes

    @property
    def kept_fraction(self) -> float:
        return self.kept_bytes / self.original_bytes if self.original_bytes else 0.0


@dataclass
class CustomizedOS:
    """The stripped, offloading-only Android environment."""

    base_layer: Layer
    report: StripReport
    services: FrozenSet[str] = OFFLOAD_INIT_SERVICES
    faked_interfaces: FrozenSet[str] = FAKED_INTERFACES

    @property
    def size_bytes(self) -> int:
        return self.base_layer.total_bytes


def customize_os(image: AndroidImage, name: str = "customized-android") -> CustomizedOS:
    """Build the customized OS layer from a full Android image.

    Keeps exactly the ``needed_for_offload`` categories (minus
    ``vm_only`` boot artifacts) — the "31.6 % of the entire Android OS
    [that] is actually needed for processing offloading requests".
    """
    layer = Layer(name)
    kept_bytes = kept_files = stripped_bytes = stripped_files = 0
    stripped_by_cat: Dict[str, int] = {}
    for node in image.layer.files():
        if node.is_dir:
            continue
        cat = image.categories[node.category]
        if cat.needed_for_offload and not cat.vm_only:
            layer.add(node.clone())
            kept_bytes += node.size
            kept_files += 1
        else:
            stripped_bytes += node.size
            stripped_files += 1
            stripped_by_cat[cat.name] = stripped_by_cat.get(cat.name, 0) + 1
    layer.seal()
    report = StripReport(
        kept_bytes=kept_bytes,
        stripped_bytes=stripped_bytes,
        kept_files=kept_files,
        stripped_files=stripped_files,
        stripped_by_category=stripped_by_cat,
    )
    return CustomizedOS(base_layer=layer, report=report)

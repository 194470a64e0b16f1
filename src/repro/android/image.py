"""Synthetic Android 4.4 (KitKat) OS image inventory.

§III-E profiles an Android-x86 4.4 r2 image and finds:

- the entire OS is **1.1 GB**;
- the ``/system`` folder is **985 MB** (87.4 % of the OS);
- **771 MB (68.4 %)** is *never accessed* by offloaded code;
- the redundancy is concentrated in **20 built-in apps, 197 shared
  libraries (.so), 4372 kernel modules (.ko) and 396 firmware blobs
  (.bin)** plus UI/telephony stacks.

We reconstruct an image whose category budget reproduces those numbers
exactly.  Each category carries flags driving the rest of the system:

- ``needed_for_offload`` — accessed while serving offloading requests
  (kept by OS customization);
- ``boot_accessed`` — touched during boot (counts as accessed in the
  atime profiling even if offloaded code never reads it);
- ``vm_only`` — kernel/ramdisk artifacts a container never needs
  (dropped even by the *non-optimized* CAC: 1.1 GB → 1.02 GB, Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..unionfs import FileNode, Layer

__all__ = [
    "CategorySpec",
    "ANDROID_44_CATEGORIES",
    "AndroidImage",
    "build_android_image",
    "MB",
]

MB = 1024 * 1024


@dataclass(frozen=True)
class CategorySpec:
    """Budget for one class of files in the OS image."""

    name: str
    directory: str
    extension: str
    count: int
    total_mb: float
    needed_for_offload: bool = False
    boot_accessed: bool = False
    vm_only: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"{self.name}: count must be >= 1")
        if self.total_mb <= 0:
            raise ValueError(f"{self.name}: total_mb must be positive")


#: Category budget calibrated to §III-E (sizes in MB; total 1126.4 = 1.1 GB).
#: /system categories sum to 985.0; the rest sum to 141.4.
ANDROID_44_CATEGORIES: List[CategorySpec] = [
    # ---- /system: redundant for offloading (731 MB) ----
    CategorySpec("builtin_app", "/system/app", ".apk", 20, 180.0),
    CategorySpec("shared_lib_unused", "/system/lib/hw", ".so", 197, 120.0),
    CategorySpec("kernel_module", "/system/lib/modules", ".ko", 4372, 140.0),
    CategorySpec("firmware", "/system/etc/firmware", ".bin", 396, 80.0),
    CategorySpec("ui_rendering", "/system/ui", ".so", 40, 150.0),
    CategorySpec("telephony", "/system/telephony", ".jar", 25, 61.0),
    # ---- /system: needed by offloaded code (254 MB) ----
    CategorySpec(
        "framework", "/system/framework", ".jar", 60, 170.0, needed_for_offload=True
    ),
    CategorySpec(
        "runtime", "/system/bin", "", 50, 64.0, needed_for_offload=True,
        boot_accessed=True,
    ),
    CategorySpec(
        "shared_lib_core", "/system/lib", ".so", 80, 20.0, needed_for_offload=True
    ),
    # ---- outside /system (141.4 MB) ----
    CategorySpec(
        "boot_image", "/boot", ".img", 2, 81.4, boot_accessed=True, vm_only=True
    ),
    CategorySpec("recovery", "/recovery", ".img", 2, 40.0),
    CategorySpec(
        "data", "/data", "", 30, 20.0, needed_for_offload=True, boot_accessed=True
    ),
]


class AndroidImage:
    """An Android OS image materialized as a filesystem :class:`Layer`."""

    def __init__(self, layer: Layer, categories: List[CategorySpec]):
        self.layer = layer
        self.categories = {c.name: c for c in categories}

    # -- totals ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.layer.total_bytes

    @property
    def system_bytes(self) -> int:
        return self.layer.bytes_under("/system")

    def category_bytes(self, name: str) -> int:
        """Total bytes of the named category."""
        return sum(n.size for n in self.layer.by_category(name))

    def category_count(self, name: str) -> int:
        """Number of files in the named category."""
        return len(self.layer.by_category(name))

    def bytes_where(self, predicate) -> int:
        """Total file bytes in categories matching ``predicate``."""
        return sum(
            n.size
            for n in self.layer.files()
            if not n.is_dir and predicate(self.categories[n.category])
        )

    @property
    def needed_bytes(self) -> int:
        """Bytes in categories offloaded code actually touches."""
        return self.bytes_where(lambda c: c.needed_for_offload)

    @property
    def redundant_bytes(self) -> int:
        """Bytes never accessed in the offloading process (incl. boot-only
        artifacts are *excluded* — boot touches them)."""
        return self.bytes_where(
            lambda c: not c.needed_for_offload and not c.boot_accessed
        )

    def container_image_bytes(self, optimized: bool) -> int:
        """Rootfs size when packed for a container.

        Non-optimized: full OS minus vm_only (kernel/ramdisk) = 1.02 GB.
        Optimized (customized OS): needed categories only.
        """
        if optimized:
            return self.bytes_where(lambda c: c.needed_for_offload and not c.vm_only)
        return self.bytes_where(lambda c: not c.vm_only)

    # -- file listings -------------------------------------------------------------
    def files_in_category(self, name: str) -> List[FileNode]:
        """The file nodes of one category."""
        return self.layer.by_category(name)


def _spread(total_bytes: int, count: int) -> List[int]:
    """Deterministically split ``total_bytes`` into ``count`` file sizes."""
    base = total_bytes // count
    rem = total_bytes - base * count
    return [base + (1 if i < rem else 0) for i in range(count)]


def build_android_image(
    name: str = "android-4.4-r2",
    categories: Optional[List[CategorySpec]] = None,
) -> AndroidImage:
    """Materialize the synthetic image as a sealed layer.

    File sizes within a category are near-uniform and sum *exactly* to
    the category budget, so aggregate arithmetic matches the paper's
    reported numbers to the byte.
    """
    cats = categories if categories is not None else ANDROID_44_CATEGORIES
    layer = Layer(name)
    for cat in cats:
        sizes = _spread(int(cat.total_mb * MB), cat.count)
        width = len(str(cat.count))
        for i, size in enumerate(sizes):
            layer.add_file(
                f"{cat.directory}/{cat.name}_{i:0{width}d}{cat.extension}",
                size,
                category=cat.name,
            )
    layer.seal()
    return AndroidImage(layer, list(cats))

"""VirusScan: multi-pattern signature scanning with Aho–Corasick.

The paper's anti-virus workload "checks the target with virus database
search" (§III-A).  Real scanners match thousands of byte signatures
simultaneously; the canonical algorithm is the Aho–Corasick automaton,
implemented here from scratch: trie construction, BFS failure links,
and a linear-time scan over the target bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["AhoCorasick", "StreamMatcher", "Signature", "SignatureDatabase",
           "VirusScanner", "ScanReport"]


@dataclass(frozen=True)
class Signature:
    """One virus signature: a named byte pattern."""

    name: str
    pattern: bytes

    def __post_init__(self):
        if not self.pattern:
            raise ValueError(f"signature {self.name!r} has an empty pattern")


class AhoCorasick:
    """Aho–Corasick multi-pattern matcher over bytes."""

    def __init__(self, patterns: Iterable[bytes]):
        patterns = list(patterns)
        if not patterns:
            raise ValueError("need at least one pattern")
        if any(not p for p in patterns):
            raise ValueError("patterns must be non-empty")
        self.patterns = patterns
        # Trie as parallel arrays: goto[state] is {byte: next_state}.
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[List[int]] = [[]]
        for idx, pattern in enumerate(patterns):
            self._insert(pattern, idx)
        self._build_failure_links()

    def _insert(self, pattern: bytes, index: int) -> None:
        state = 0
        for byte in pattern:
            nxt = self._goto[state].get(byte)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._fail.append(0)
                self._output.append([])
                self._goto[state][byte] = nxt
            state = nxt
        self._output[state].append(index)

    def _build_failure_links(self) -> None:
        queue: deque = deque()
        for state in self._goto[0].values():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            state = queue.popleft()
            for byte, nxt in self._goto[state].items():
                queue.append(nxt)
                fail = self._fail[state]
                while fail and byte not in self._goto[fail]:
                    fail = self._fail[fail]
                self._fail[nxt] = self._goto[fail].get(byte, 0)
                if self._fail[nxt] == nxt:  # root self-loop guard
                    self._fail[nxt] = 0
                self._output[nxt] = self._output[nxt] + self._output[self._fail[nxt]]

    def search(self, data: bytes) -> List[Tuple[int, int]]:
        """All matches as ``(end_offset, pattern_index)`` pairs.

        ``end_offset`` is the index one past the match's last byte.
        """
        return StreamMatcher(self).feed(data)

    def matcher(self) -> "StreamMatcher":
        """A stateful matcher for chunked/streaming scans."""
        return StreamMatcher(self)


class StreamMatcher:
    """Carries automaton state across chunk boundaries.

    Real scanners never hold a whole file in memory; because the
    Aho–Corasick state survives between ``feed`` calls, signatures that
    straddle chunk boundaries are still found, and offsets are absolute
    within the stream.
    """

    def __init__(self, automaton: AhoCorasick):
        self.automaton = automaton
        self._state = 0
        self.offset = 0

    def feed(self, chunk: bytes) -> List[Tuple[int, int]]:
        """Scan one chunk; returns ``(absolute_end_offset, idx)`` hits."""
        goto = self.automaton._goto
        fail = self.automaton._fail
        output = self.automaton._output
        state = self._state
        base = self.offset
        hits: List[Tuple[int, int]] = []
        for pos, byte in enumerate(chunk):
            while state and byte not in goto[state]:
                state = fail[state]
            state = goto[state].get(byte, 0)
            for idx in output[state]:
                hits.append((base + pos + 1, idx))
        self._state = state
        self.offset += len(chunk)
        return hits


class SignatureDatabase:
    """A deterministic synthetic virus-signature database."""

    def __init__(self, signatures: List[Signature]):
        if not signatures:
            raise ValueError("database needs at least one signature")
        names = [s.name for s in signatures]
        if len(set(names)) != len(names):
            raise ValueError("signature names must be unique")
        self.signatures = list(signatures)
        self.automaton = AhoCorasick([s.pattern for s in signatures])

    @classmethod
    def generate(
        cls, count: int = 500, min_len: int = 8, max_len: int = 24, seed: int = 0
    ) -> "SignatureDatabase":
        """Random (seeded) signatures, as a stand-in for a real DB."""
        if count < 1 or min_len < 1 or max_len < min_len:
            raise ValueError("invalid generation parameters")
        rng = np.random.default_rng(seed)
        sigs = []
        seen = set()
        while len(sigs) < count:
            length = int(rng.integers(min_len, max_len + 1))
            pattern = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
            if pattern in seen:
                continue
            seen.add(pattern)
            sigs.append(Signature(name=f"SIG-{len(sigs):05d}", pattern=pattern))
        return cls(sigs)

    def __len__(self) -> int:
        return len(self.signatures)

    def dumps(self) -> str:
        """Serialize as the classic 'NAME=HEX' one-per-line format."""
        return "\n".join(f"{s.name}={s.pattern.hex()}" for s in self.signatures)

    @classmethod
    def loads(cls, text: str) -> "SignatureDatabase":
        """Parse a 'NAME=HEX' database (comments with '#', blank lines ok)."""
        sigs = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, hexpat = line.partition("=")
            if not sep or not name.strip():
                raise ValueError(f"line {lineno}: expected NAME=HEX, got {raw!r}")
            try:
                pattern = bytes.fromhex(hexpat.strip())
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad hex pattern") from exc
            sigs.append(Signature(name=name.strip(), pattern=pattern))
        return cls(sigs)


@dataclass
class ScanReport:
    """Result of scanning one object."""

    target: str
    scanned_bytes: int
    detections: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def infected(self) -> bool:
        return bool(self.detections)


class VirusScanner:
    """Scans byte blobs against a signature database."""

    def __init__(self, database: SignatureDatabase):
        self.database = database
        self.total_scanned = 0
        self.total_detections = 0

    def scan(self, target: str, data: bytes) -> ScanReport:
        """Scan ``data``, reporting (signature name, end offset) hits."""
        hits = self.database.automaton.search(data)
        detections = [
            (self.database.signatures[idx].name, end) for end, idx in hits
        ]
        self.total_scanned += len(data)
        self.total_detections += len(detections)
        return ScanReport(target=target, scanned_bytes=len(data), detections=detections)

    def scan_stream(self, target: str, chunks) -> ScanReport:
        """Scan an iterable of byte chunks without concatenating them.

        Matches spanning chunk boundaries are found (the automaton state
        persists) and offsets are absolute within the stream.
        """
        matcher = self.database.automaton.matcher()
        detections: List[Tuple[str, int]] = []
        total = 0
        for chunk in chunks:
            for end, idx in matcher.feed(chunk):
                detections.append((self.database.signatures[idx].name, end))
            total += len(chunk)
        self.total_scanned += total
        self.total_detections += len(detections)
        return ScanReport(target=target, scanned_bytes=total, detections=detections)

    def implant(self, data: bytes, signature_index: int, offset: int) -> bytes:
        """Test helper: place a known signature inside ``data``."""
        pattern = self.database.signatures[signature_index].pattern
        if offset < 0 or offset + len(pattern) > len(data):
            raise ValueError("pattern does not fit at offset")
        return data[:offset] + pattern + data[offset + len(pattern):]

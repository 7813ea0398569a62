"""Memory access tracing for the concrete VM.

A trace records every instruction fetch and data access in program order.
Its :meth:`Trace.view` method computes exactly the adversary views of paper
§3.2 — ``π_{n:b}`` projections of one access stream, optionally collapsed
modulo stuttering — which is what the validation harness compares against the
static bounds (the executable form of Theorem 1).

:meth:`Trace.hit_miss_view` and :meth:`Trace.time_view` derive the
*trace-based* and *time-based* adversary observations (the CacheAudit
adversary hierarchy) by replaying one access stream through a replacement-
policy cache simulator: the hit/miss sequence, and the total (hits, misses)
pair that determines execution time on an in-order machine.  Both are
deterministic functions of the block-level view — for any policy — which is
what lets :mod:`repro.core.adversary` bound them from the block trace DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Trace", "FETCH", "READ", "WRITE"]

FETCH = "I"
READ = "R"
WRITE = "W"


@dataclass(slots=True)
class Trace:
    """An ordered record of the accesses of one concrete execution.

    Access ``i`` is ``(kinds[i], addrs[i], sizes[i])``: kind (fetch/read/
    write), address and size in bytes.  The per-cache address streams are
    derived on first use and reused by every later view of the same trace.
    """

    kinds: list[str] = field(default_factory=list)
    addrs: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    # "I"/"D" -> (trace length when derived, address stream)
    _streams: dict[str, tuple[int, list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def record(self, kind: str, addr: int, size: int) -> None:
        """Append one access."""
        self.kinds.append(kind)
        self.addrs.append(addr)
        self.sizes.append(size)

    def fetches(self) -> list[int]:
        """Addresses of all instruction fetches."""
        return list(self.stream("I"))

    def data_accesses(self) -> list[int]:
        """Addresses of all data reads and writes."""
        return list(self.stream("D"))

    def view(self, cache_kind: str, offset_bits: int, stuttering: bool = False) -> tuple:
        """The adversary's view of this trace (paper §3.2).

        ``cache_kind`` is "I" (instruction stream), "D" (data stream) or
        "shared" (both, interleaved).  ``offset_bits`` selects the observer
        granularity; ``stuttering=True`` collapses maximal runs of equal
        observations.
        """
        observations = [addr >> offset_bits for addr in self.stream(cache_kind)]
        if not stuttering:
            return tuple(observations)
        collapsed: list[int] = []
        for observation in observations:
            if not collapsed or collapsed[-1] != observation:
                collapsed.append(observation)
        return tuple(collapsed)

    def stream(self, cache_kind: str) -> list[int]:
        """The addresses of one cache's access stream (shared; do not mutate).

        ``cache_kind`` is "I", "D" or "shared", as for :meth:`view`.
        """
        if cache_kind == "shared":
            return self.addrs
        length = len(self.addrs)
        cached = self._streams.get(cache_kind)
        if cached is not None and cached[0] == length:
            return cached[1]
        if cache_kind == "I":
            stream = [addr for kind, addr in zip(self.kinds, self.addrs)
                      if kind == FETCH]
        elif cache_kind == "D":
            stream = [addr for kind, addr in zip(self.kinds, self.addrs)
                      if kind != FETCH]
        else:
            raise ValueError(f"unknown cache kind {cache_kind!r}")
        self._streams[cache_kind] = (length, stream)
        return stream

    def hit_miss_view(self, cache_kind: str, cache) -> tuple[bool, ...]:
        """The trace-based adversary's view: the hit/miss sequence.

        Replays this trace's ``cache_kind`` stream through ``cache`` (a fresh
        :class:`~repro.vm.cache.SetAssociativeCache` of any policy).  The
        result is a deterministic function of the block view, so its number
        of distinct values over all secrets is bounded by the block-trace
        count (see :mod:`repro.core.adversary`).
        """
        access = cache.access
        return tuple(access(addr) for addr in self.stream(cache_kind))

    def time_view(self, cache_kind: str, cache) -> tuple[int, int]:
        """The time-based adversary's view: total (hits, misses).

        On an in-order cost model the execution time is an affine function
        of these two counters, so distinguishing timings is exactly
        distinguishing (hits, misses) pairs.
        """
        sequence = self.hit_miss_view(cache_kind, cache)
        hits = sum(sequence)
        return hits, len(sequence) - hits

    def __len__(self) -> int:
        return len(self.addrs)

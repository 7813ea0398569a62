"""Concrete execution substrate: CPU, memory, tracing, cache, cost model."""

from repro.vm.cache import (
    POLICIES,
    CacheConfig,
    CacheStats,
    FIFOPolicy,
    LRUPolicy,
    ReplacementPolicy,
    SetAssociativeCache,
    TreePLRUPolicy,
    make_policy,
)
from repro.vm.cpu import CPU, CPUError, StepLimitExceeded
from repro.vm.memory import FlatMemory
from repro.vm.perf import CostModel, PerfCounters
from repro.vm.tracer import FETCH, READ, WRITE, Trace

__all__ = [
    "CPU", "CPUError", "CacheConfig", "CacheStats", "CostModel",
    "FETCH", "FIFOPolicy", "FlatMemory", "LRUPolicy", "POLICIES",
    "PerfCounters", "READ", "ReplacementPolicy", "SetAssociativeCache",
    "StepLimitExceeded", "Trace", "TreePLRUPolicy", "WRITE", "make_policy",
]

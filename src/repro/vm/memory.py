"""Flat memory and malloc model for the concrete VM.

Memory is a sparse byte store over the full 32-bit address space.  The heap
is a bump allocator whose base can be shifted (``aslr_offset``) to validate
the paper's central claim experimentally: for secure countermeasures the
adversary's *view* of the access trace is identical for every heap placement,
even though the concrete addresses differ.
"""

from __future__ import annotations

import weakref

from repro.core.bitvec import truncate
from repro.isa.image import Image

__all__ = ["FlatMemory", "MemoryError_", "DEFAULT_HEAP_BASE", "DEFAULT_STACK_TOP"]

DEFAULT_HEAP_BASE = 0x0900_0000
DEFAULT_STACK_TOP = 0x0BFF_F000


_ADDRESS_MASK = 0xFFFF_FFFF
_LAST_WORD = _ADDRESS_MASK - 3  # highest address a 4-byte access does not wrap

# Address -> byte map of each image's sections, built once per image
# (images are immutable after assembly) and dropped with the image.
_IMAGE_BYTES: weakref.WeakKeyDictionary[Image, dict[int, int]] = (
    weakref.WeakKeyDictionary())


def _image_bytes(image: Image) -> dict[int, int]:
    snapshot = _IMAGE_BYTES.get(image)
    if snapshot is None:
        snapshot = {section.base + offset: value
                    for section in image.sections
                    for offset, value in enumerate(section.data)}
        _IMAGE_BYTES[image] = snapshot
    return snapshot


class MemoryError_(Exception):
    """Raised on invalid memory accesses (kept distinct from builtins)."""


class FlatMemory:
    """Sparse byte-addressable memory with a bump-allocating heap."""

    def __init__(
        self,
        heap_base: int = DEFAULT_HEAP_BASE,
        aslr_offset: int = 0,
        heap_align: int = 16,
    ) -> None:
        self._bytes: dict[int, int] = {}
        self._heap_next = heap_base + aslr_offset
        self._heap_align = heap_align
        self.allocations: list[tuple[int, int]] = []  # (address, size)

    # ------------------------------------------------------------------
    # Image loading
    # ------------------------------------------------------------------
    def load_image(self, image: Image) -> None:
        """Copy every section of an assembled image into memory.

        The image's bytes overwrite whatever memory holds at their
        addresses, so a second CPU on the same memory starts from the
        image's initial data again.
        """
        self._bytes.update(_image_bytes(image))

    # ------------------------------------------------------------------
    # Byte/word access
    # ------------------------------------------------------------------
    def read_byte(self, addr: int) -> int:
        """Read one byte (uninitialized memory reads as 0)."""
        return self._bytes.get(truncate(addr, 32), 0)

    def write_byte(self, addr: int, value: int) -> None:
        """Write one byte."""
        self._bytes[truncate(addr, 32)] = value & 0xFF

    def read(self, addr: int, size: int) -> int:
        """Little-endian read of ``size`` bytes (addresses wrap at 2**32)."""
        get = self._bytes.get
        if size == 4 and 0 <= addr <= _LAST_WORD:
            return (get(addr, 0) | get(addr + 1, 0) << 8
                    | get(addr + 2, 0) << 16 | get(addr + 3, 0) << 24)
        value = 0
        for offset in range(size):
            value |= get((addr + offset) & _ADDRESS_MASK, 0) << (8 * offset)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        """Little-endian write of ``size`` bytes (addresses wrap at 2**32)."""
        memory = self._bytes
        if size == 4 and 0 <= addr <= _LAST_WORD:
            memory[addr] = value & 0xFF
            memory[addr + 1] = (value >> 8) & 0xFF
            memory[addr + 2] = (value >> 16) & 0xFF
            memory[addr + 3] = (value >> 24) & 0xFF
            return
        for offset in range(size):
            memory[(addr + offset) & _ADDRESS_MASK] = (value >> (8 * offset)) & 0xFF

    def read_block(self, addr: int, size: int) -> bytes:
        """Read a contiguous range as bytes."""
        return bytes(self.read_byte(addr + offset) for offset in range(size))

    def write_block(self, addr: int, payload: bytes) -> None:
        """Write a contiguous byte string."""
        for offset, value in enumerate(payload):
            self.write_byte(addr + offset, value)

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the (low, secret-independent)
        address chosen by the bump allocator."""
        if size <= 0:
            raise MemoryError_(f"malloc of non-positive size {size}")
        align = self._heap_align
        addr = (self._heap_next + align - 1) // align * align
        self._heap_next = addr + size
        self.allocations.append((addr, size))
        return addr

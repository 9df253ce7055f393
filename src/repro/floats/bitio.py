"""Bit-granular stream I/O shared by the XOR-based double codecs.

Bits are written most-significant-first, matching the descriptions in the
Gorilla and Chimp papers. The writer accumulates into a Python int (cheap
arbitrary-precision shifts) and flushes to bytes once at the end; the reader
does offset arithmetic over one int built from the input bytes.
"""

from __future__ import annotations


class BitWriter:
    """Append-only MSB-first bit stream."""

    def __init__(self) -> None:
        self._chunks: list[tuple[int, int]] = []  # (value, bit_count)
        self._bits = 0

    def write(self, value: int, bits: int) -> None:
        """Write the lowest ``bits`` bits of ``value``."""
        if bits < 0:
            raise ValueError("negative bit count")
        if bits == 0:
            return
        self._chunks.append((value & ((1 << bits) - 1), bits))
        self._bits += bits

    def write_bit(self, bit: int) -> None:
        self.write(bit, 1)

    @property
    def bit_length(self) -> int:
        return self._bits

    def getvalue(self) -> bytes:
        """The stream as bytes, zero-padded to a byte boundary."""
        acc = 0
        for value, bits in self._chunks:
            acc = (acc << bits) | value
        pad = (-self._bits) % 8
        acc <<= pad
        return acc.to_bytes((self._bits + pad) // 8, "big")


class BitReader:
    """Sequential MSB-first reader over bytes produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._value = int.from_bytes(data, "big")
        self._total_bits = len(data) * 8
        self._pos = 0

    def read(self, bits: int) -> int:
        """Read ``bits`` bits as an unsigned int."""
        if bits == 0:
            return 0
        if self._pos + bits > self._total_bits:
            raise EOFError("bit stream exhausted")
        shift = self._total_bits - self._pos - bits
        self._pos += bits
        return (self._value >> shift) & ((1 << bits) - 1)

    def read_bit(self) -> int:
        return self.read(1)


def leading_zeros64(x: int) -> int:
    """Count of leading zero bits in a 64-bit value."""
    if x == 0:
        return 64
    return 64 - x.bit_length()


def trailing_zeros64(x: int) -> int:
    """Count of trailing zero bits in a 64-bit value."""
    if x == 0:
        return 64
    return (x & -x).bit_length() - 1

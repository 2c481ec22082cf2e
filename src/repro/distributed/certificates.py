"""Bit-accurate certificate encoding.

The single complexity measure of a proof-labeling scheme is the number of
bits of the largest certificate (Section 2 of the paper).  To report
certificate sizes honestly, every certificate in this library can be
serialised to an actual bit string through a :class:`BitWriter`; sizes
reported by the experiments are the lengths of these encodings, not Python
``sys.getsizeof`` artefacts.

The encoding convention is deliberately simple and self-delimiting:

* unsigned integers are written as Elias-gamma-style ``(length, value)``
  pairs: a unary length prefix followed by the binary value, which costs
  ``2 * floor(log2(v + 1)) + 1`` bits — i.e. ``Theta(log v)``;
* fixed-width fields are available when the width is known to both prover
  and verifier (e.g. identifiers in a known range);
* optional values spend one flag bit.

What matters for the reproduction is the *scaling* of certificate sizes with
``n``; any standard prefix-free integer code gives the same
``Theta(log n)``-per-field behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import CertificateError

__all__ = ["BitWriter", "BitReader", "Encodable", "encoded_size_bits"]


@dataclass
class BitWriter:
    """Accumulates a bit string and tracks its length."""

    bits: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    def write_bit(self, bit: int) -> None:
        """Append a single bit."""
        self.bits.append(1 if bit else 0)

    def write_fixed_uint(self, value: int, width: int) -> None:
        """Append ``value`` using exactly ``width`` bits (big-endian)."""
        if value < 0 or value >= (1 << width):
            raise CertificateError(f"value {value} does not fit in {width} bits")
        for position in range(width - 1, -1, -1):
            self.write_bit((value >> position) & 1)

    def write_uint(self, value: int) -> None:
        """Append ``value`` with the self-delimiting gamma-style code."""
        if value < 0:
            raise CertificateError("write_uint expects a non-negative integer")
        shifted = value + 1
        width = shifted.bit_length()
        for _ in range(width - 1):
            self.write_bit(0)
        self.write_fixed_uint(shifted, width)

    def write_int(self, value: int) -> None:
        """Append a (possibly negative) integer using a sign bit plus gamma code."""
        self.write_bit(1 if value < 0 else 0)
        self.write_uint(abs(value))

    def write_bool(self, value: bool) -> None:
        """Append a boolean flag."""
        self.write_bit(1 if value else 0)

    def write_optional_uint(self, value: int | None) -> None:
        """Append an optional unsigned integer (one flag bit plus the value)."""
        if value is None:
            self.write_bit(0)
        else:
            self.write_bit(1)
            self.write_uint(value)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bits)

    def to_bytes(self) -> bytes:
        """Return the accumulated bits packed into bytes (zero-padded)."""
        out = bytearray()
        for start in range(0, len(self.bits), 8):
            chunk = self.bits[start:start + 8]
            byte = 0
            for bit in chunk:
                byte = (byte << 1) | bit
            byte <<= (8 - len(chunk))
            out.append(byte)
        return bytes(out)

    def bit_length(self) -> int:
        """Return the number of bits written so far."""
        return len(self.bits)


class BitReader:
    """Decodes values written by :class:`BitWriter` (used in round-trip tests)."""

    def __init__(self, bits: list[int]) -> None:
        self._bits = bits
        self._position = 0

    def read_bit(self) -> int:
        if self._position >= len(self._bits):
            raise CertificateError("attempted to read past the end of the bit string")
        bit = self._bits[self._position]
        self._position += 1
        return bit

    def read_fixed_uint(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_uint(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
        remainder = self.read_fixed_uint(zeros)
        return ((1 << zeros) | remainder) - 1

    def read_int(self) -> int:
        negative = self.read_bit() == 1
        magnitude = self.read_uint()
        return -magnitude if negative else magnitude

    def read_bool(self) -> bool:
        return self.read_bit() == 1

    def read_optional_uint(self) -> int | None:
        if self.read_bit() == 0:
            return None
        return self.read_uint()


class Encodable:
    """Mixin for certificate objects that can report their exact bit size."""

    def encode(self, writer: BitWriter) -> None:  # pragma: no cover - interface
        """Write this object's content into ``writer``."""
        raise NotImplementedError

    def size_bits(self) -> int:
        """Return the exact number of bits of this object's encoding."""
        writer = BitWriter()
        self.encode(writer)
        return writer.bit_length()


def encoded_size_bits(obj: object) -> int:
    """Return the bit size of ``obj``.

    ``Encodable`` objects use their own encoding; ``None`` costs one flag
    bit; plain integers use the gamma code.  Anything else is rejected so
    that un-audited payloads never sneak into the size accounting.
    """
    if obj is None:
        return 1
    if isinstance(obj, Encodable):
        return obj.size_bits()
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        writer = BitWriter()
        writer.write_int(obj)
        return writer.bit_length()
    raise CertificateError(f"cannot account for the size of object of type {type(obj)!r}")

"""Bit-accurate certificate encoding.

The single complexity measure of a proof-labeling scheme is the number of
bits of the largest certificate (Section 2 of the paper).  To report
certificate sizes honestly, every certificate in this library can be
serialised to an actual bit string through a :class:`BitWriter`; sizes
reported by the experiments are the lengths of these encodings, not Python
``sys.getsizeof`` artefacts.

Each certificate type has exactly one ``encode`` method.  Reported sizes run
that method against a :class:`BitCounter`, which counts exactly the bits a
:class:`BitWriter` would write (``2 * bit_length(v + 1) - 1`` for a gamma
code) in O(1) per field instead of appending them one at a time.
:class:`BitWriter` and :class:`BitReader` stay as the round-trip oracle the
tests hold the counter to.

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

__all__ = ["BitWriter", "BitCounter", "BitReader", "Encodable", "encode_nested",
           "encoded_size_bits"]


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

    def bit_length(self) -> int:
        """Return the number of bits written so far."""
        return len(self.bits)


class BitCounter:
    """Counts the bits :class:`BitWriter` would write, storing none of them.

    It has :class:`BitWriter`'s ``write_*`` methods and range checks, and it
    also refuses a field that is not an int: a payload whose fields
    :class:`BitWriter` cannot encode (``None`` where an int belongs, a
    string) raises :class:`~repro.exceptions.CertificateError` here rather
    than whatever its comparison or ``bit_length`` call would raise.
    """

    __slots__ = ("bits",)

    def __init__(self) -> None:
        self.bits = 0

    def write_bit(self, bit: int) -> None:
        self.bits += 1

    def write_fixed_uint(self, value: int, width: int) -> None:
        if not isinstance(value, int) or value < 0 or value >= (1 << width):
            raise CertificateError(f"value {value!r} does not fit in {width} bits")
        self.bits += width

    def write_uint(self, value: int) -> None:
        if not isinstance(value, int) or value < 0:
            raise CertificateError(
                f"write_uint expects a non-negative integer, got {value!r}")
        self.bits += 2 * (value + 1).bit_length() - 1

    def write_int(self, value: int) -> None:
        if not isinstance(value, int):
            raise CertificateError(f"write_int expects an integer, got {value!r}")
        self.bits += 2 * (abs(value) + 1).bit_length()

    def write_bool(self, value: bool) -> None:
        self.bits += 1

    def write_optional_uint(self, value: int | None) -> None:
        self.bits += 1
        if value is not None:
            self.write_uint(value)


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
        """Write this object's content into ``writer``.

        ``writer`` is a :class:`BitWriter`, or the :class:`BitCounter` that
        :meth:`size_bits` passes.
        """
        raise NotImplementedError

    def size_bits(self) -> int:
        """Return the exact number of bits of this object's encoding."""
        counter = BitCounter()
        self.encode(counter)
        return counter.bits


def encode_nested(writer: BitWriter | BitCounter, value: object) -> None:
    """Write the nested certificate ``value`` into ``writer``.

    Composite certificates encode their parts through this call, so a part
    that is not :class:`Encodable` (``None``, an int, a string) raises
    :class:`~repro.exceptions.CertificateError` instead of an
    ``AttributeError`` from a missing ``encode``.
    """
    if not isinstance(value, Encodable):
        raise CertificateError(
            f"nested payload of type {type(value).__name__} has no encoding")
    value.encode(writer)


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
        counter = BitCounter()
        counter.write_int(obj)
        return counter.bits
    raise CertificateError(f"cannot account for the size of object of type {type(obj)!r}")

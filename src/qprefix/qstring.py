"""Indeterminate-length quantum bit strings and their basic algebra.

A qubit string is a finite superposition sum_s alpha_s |s> of classical bit
strings s of possibly *different* lengths, i.e. an element of the string
space H = (+)_{n>=0} (C^2)^(x n).  Classical strings of different lengths
are orthogonal by construction.  Two length notions matter for compression:

* base length    L(psi)    = length of the longest string in the support,
* average length lbar(psi) = sum_s |alpha_s|^2 len(s), the expectation of
  the length observable Lambda.

Concatenation extends bilinearly from classical strings.  It adds base
lengths, but it is norm-preserving only when the left factors are drawn
from a prefix-free set: distinct index pairs can produce the same product
string (e.g. 0 * 10 = 01 * 0) and then their amplitudes interfere.  The
support-product accumulation in :func:`concat` therefore sums colliding
amplitudes instead of assuming a tensor layout.

All values are immutable; every operation returns a fresh object.
"""

from __future__ import annotations

import cmath
import math

from .errors import ValidationError

# Absolute tolerance for zero/equality comparisons throughout the package.
EPS = 1e-9
# Squared-magnitude threshold below which amplitudes are dropped after
# arithmetic.  Keeps supports sparse without disturbing 1e-9 comparisons.
PRUNE_SQ = 1e-24


class BitString(int):
    """Immutable classical bit string: the integer ``1 << length | value``.

    The first (leftmost) bit is the most significant bit of ``value``; the
    empty string is 1.  It equals, hashes and orders as that integer, and
    integer order is (length, value) order.
    """

    __slots__ = ()

    def __new__(cls, length: int = 0, value: int = 0):
        if length < 0:
            raise ValidationError("bit string length must be >= 0")
        if value < 0 or value >> length:
            raise ValidationError("value does not fit into %d bits" % length)
        return int.__new__(cls, (1 << length) | value)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        _check_text(text)
        return cls._from_checked(text)

    @classmethod
    def _from_checked(cls, text: str) -> "BitString":
        # text has passed _check_text, so "1" + text is the packed string
        return int.__new__(cls, "1" + text, 2)

    def __getnewargs__(self):  # copy and pickle call __new__(length, value)
        return self.length, self.value

    def __len__(self) -> int:
        return self.bit_length() - 1

    length = property(__len__)

    @property
    def value(self) -> int:
        return self ^ (1 << self.length)

    @property
    def text(self) -> str:
        return bin(self)[3:]

    def bit(self, i: int) -> int:
        """Bit at 0-based position ``i``, counted from the left."""
        if not 0 <= i < self.length:
            raise ValidationError("bit index out of range")
        return (self >> (self.length - 1 - i)) & 1

    def with_bit(self, i: int, b: int) -> "BitString":
        if not 0 <= i < self.length:
            raise ValidationError("bit index out of range")
        shift = self.length - 1 - i
        return _bits((self & ~(1 << shift)) | ((b & 1) << shift))

    def concat(self, other: "BitString") -> "BitString":
        t = other.length
        return _bits((self << t) | (other ^ (1 << t)))

    def prefix(self, k: int) -> "BitString":
        """The first ``k`` bits."""
        if not 0 <= k <= self.length:
            raise ValidationError("prefix length out of range")
        return _bits(self >> (self.length - k))

    def is_prefix_of(self, other: "BitString") -> bool:
        return self.length <= other.length and other.prefix(self.length) == self

    def __bool__(self) -> bool:
        return self != 1  # only the empty string is false, as its len says

    def __repr__(self) -> str:
        return "BitString(%r)" % self.text


def _bits(packed: int) -> BitString:
    """The bit string whose packed integer is ``packed`` (at least 1), unchecked."""
    return int.__new__(BitString, packed)


def _check_text(text) -> None:
    """Reject anything but 0/1 text.

    ``int(text, 2)`` alone would also take signs, underscores, whitespace,
    a ``0b`` prefix and non-ASCII digits.
    """
    if not isinstance(text, str) or text.strip("01"):
        raise ValidationError("bit string text must consist of 0s and 1s: %r" % text)


def _as_bits(s) -> BitString:
    if isinstance(s, BitString):
        return s
    if isinstance(s, str):
        return BitString.from_text(s)
    raise ValidationError("expected a BitString or 0/1 text, got %r" % (s,))


class QubitString:
    """Sparse superposition of classical bit strings.

    ``terms`` maps :class:`BitString` keys to complex amplitudes.  Terms whose
    squared magnitude falls below ``PRUNE_SQ`` are dropped on construction,
    so every stored amplitude is nonzero.  Instances are treated as
    immutable; the algebra (+, -, scalar *) always builds new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc: dict[BitString, complex] = {}
        for s, a in (terms or {}).items():
            s = _as_bits(s)
            a = complex(a)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValidationError("amplitudes must be finite")
            acc[s] = acc.get(s, 0j) + a
        self._terms = _pruned(acc)

    @classmethod
    def _from_sums(cls, sums: dict) -> "QubitString":
        """From already merged ``{BitString: complex}`` sums: check, then prune.

        The new string takes ``sums`` over and prunes it in place.
        """
        if not all(map(cmath.isfinite, sums.values())):
            raise ValidationError("amplitudes must be finite")
        psi = cls.__new__(cls)
        psi._terms = _pruned(sums)
        return psi

    @property
    def terms(self) -> dict:
        return self._terms

    def support(self):
        """Support strings in deterministic (length, value) order."""
        return sorted(self._terms)

    def items_sorted(self):
        return [(s, self._terms[s]) for s in self.support()]

    def norm_sq(self) -> float:
        # fsum is correctly rounded, so the terms' order does not matter
        try:
            return math.fsum(abs(a) ** 2 for a in self._terms.values())
        except OverflowError:  # finite amplitudes whose squares overflow
            return math.inf

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= EPS

    def normalized(self) -> "QubitString":
        n = self.norm()
        if n <= 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return self * (1.0 / n)

    def distance(self, other: "QubitString") -> float:
        return (self - other).norm()

    def __add__(self, other: "QubitString") -> "QubitString":
        merged = dict(self._terms)
        for s, a in other._terms.items():
            merged[s] = merged.get(s, 0j) + a
        return QubitString(merged)

    def __sub__(self, other: "QubitString") -> "QubitString":
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "QubitString":
        c = complex(scalar)
        return QubitString({s: a * c for s, a in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "QubitString":
        return self * -1.0

    def __repr__(self) -> str:
        inside = ", ".join("%r: %s" % (s.text, a) for s, a in self.items_sorted())
        return "QubitString({%s})" % inside


def _pruned(acc: dict) -> dict:
    """Drop, in place, the sums whose squared magnitude is below PRUNE_SQ."""
    for s in [s for s, a in acc.items() if a.real * a.real + a.imag * a.imag < PRUNE_SQ]:
        del acc[s]
    return acc


def ket(bits, amplitude=1.0) -> QubitString:
    """The basis string |bits> scaled by ``amplitude``."""
    return QubitString({_as_bits(bits): amplitude})


def base_length(psi: QubitString) -> int:
    """Length of the longest support string.  The zero vector has none."""
    if not psi.terms:
        raise ValidationError("the zero vector has no base length")
    return max(psi.terms).length  # integer order is (length, value) order


def avg_length(psi: QubitString) -> float:
    """Expected string length <psi| Lambda |psi>; requires a normalized state."""
    if not psi.is_normalized():
        raise ValidationError("average length is defined for normalized states only")
    return math.fsum(abs(a) ** 2 * s.length for s, a in psi.terms.items())


def inner(psi: QubitString, phi: QubitString) -> complex:
    """Hermitian inner product <psi|phi>, antilinear in the first slot."""
    if len(psi.terms) > len(phi.terms):
        return inner(phi, psi).conjugate()
    return _overlap(psi.items_sorted(), phi.terms)


def _overlap(items, other: dict) -> complex:
    """Sum of conj(a) * other[s] over the (s, a) ``items``, in their order.

    The one loop behind every inner product here and in :mod:`qprefix.prefix`.
    """
    acc = 0j
    for s, a in items:
        b = other.get(s)
        if b is not None:
            acc += a.conjugate() * b
    return acc


def zero_extended(psi: QubitString, l_max: int) -> QubitString:
    """Pad every support string with trailing zeros out to length ``l_max``.

    Padding each support string is linear; strings that extend each other
    by zeros land on the same register string and their amplitudes are
    summed.  On the span of a prefix-free support no collisions occur and
    the map is an isometry onto (C^2)^(x l_max), which is what makes the
    register form of a variable-length message well defined.
    """
    if base_length(psi) > l_max:
        raise ValidationError("l_max %d is below the base length" % l_max)
    acc: dict[BitString, complex] = {}
    for s, a in psi.terms.items():
        key = _bits(s << (l_max - s.length))
        acc[key] = acc.get(key, 0j) + a
    return QubitString(acc)


def concat(psi: QubitString, phi: QubitString) -> QubitString:
    """Bilinear concatenation psi * phi.

    Amplitudes of colliding product strings are summed; for left factors
    taken from a prefix-free set no collisions occur and the operation is
    an isometry.
    """
    acc: dict[BitString, complex] = {}
    for s, a in psi.terms.items():
        for t, b in phi.terms.items():
            key = s.concat(t)
            acc[key] = acc.get(key, 0j) + a * b
    return QubitString(acc)

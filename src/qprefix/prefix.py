"""Prefix-freedom of qubit strings and the Kraft chain.

A set M of qubit strings is prefix-free when no element can be reached by
appending a nonempty classical suffix to another: <phi | psi * s> = 0 for
all phi, psi in M and all nonempty classical s.  For a subspace the notion
is basis-independent, so orthonormal bases are the natural carriers here.

For an orthonormal prefix-free system {e_i} the three Kraft-style sums

    sum_i 2^(-L(e_i))  <=  sum_i 2^(-lbar(e_i))  <=  sum_i <e_i|2^(-Lambda)|e_i>  <=  1

hold, with the first two inequalities tight exactly when every e_i is a
length eigenvector (single support length).  The third sum is the trace of
2^(-Lambda) over the spanned subspace.

The exhaustive suffix scan lives in :mod:`qprefix.bruteforce` as the
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .qstring import EPS, BitString, _overlap, avg_length, base_length

# Residual norm below which a vector counts as linearly dependent.
DEP_TOL = 1e-7


@dataclass(frozen=True)
class Witness:
    """A violation of prefix-freedom: <phi | psi * suffix> != 0."""
    phi: int
    psi: int
    suffix: BitString


@dataclass(frozen=True)
class KraftChain:
    sum_base: float
    sum_avg: float
    trace_term: float

    def __post_init__(self):
        ok = (self.sum_base <= self.sum_avg + EPS
              and self.sum_avg <= self.trace_term + EPS
              and self.trace_term <= 1.0 + EPS)
        if not ok:
            raise ValidationError("Kraft chain ordering violated: %r" % (self,))


def _orthonormality_defect(vectors) -> float:
    # <u|v> runs over the smaller support in (length, value) order through
    # the loop of qstring.inner, so every defect is the same float
    terms = [v.terms for v in vectors]
    items = [sorted(t.items()) for t in terms]
    worst = 0.0
    for i, u in enumerate(terms):
        for j in range(i, len(terms)):
            v = terms[j]
            if len(u) > len(v):
                g = _overlap(items[j], u).conjugate()
            else:
                g = _overlap(items[i], v)
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(g - target))
    return worst


def is_orthonormal(vectors) -> bool:
    return _orthonormality_defect(vectors) <= EPS


def _tails_by_head(phi: dict) -> dict:
    """Map each proper prefix x of a support string x * s of ``phi`` to its tails s, as ints."""
    out: dict[int, list] = {}
    for y in phi:
        for t in range(y.bit_length() - 1, 0, -1):
            out.setdefault(y >> t, []).append((1 << t) | (y & ((1 << t) - 1)))
    return out


def is_prefix_free(vectors):
    """Decide prefix-freedom of a finite set; returns (flag, witness or None).

    Checks <phi | psi * s> = 0 for every ordered pair and every nonempty
    classical suffix s.  The overlap is a sum over x in supp psi of terms
    that vanish unless x * s lies in supp phi, so only the candidate
    suffixes s = y[len x:], with x in supp psi a proper prefix of y in
    supp phi, can break it.  They are visited in (length, value) order, so
    the witness is the first one an exhaustive scan over all suffixes would
    find.  A pair has at most |supp phi| * L candidates (L the maximal base
    length), each evaluated in O(|supp psi|): O(pairs * |supp|^2 * L) in
    all, against the 2^(L+1) suffixes per pair of the scan that
    :func:`qprefix.bruteforce.prefix_free_bruteforce` keeps as the oracle.
    A bit string is the int ``1 << length | value``, so x * s is
    ``x << len(s) | s.value`` and every lookup hashes a plain int.
    """
    terms = [v.terms for v in vectors]
    tails = [_tails_by_head(t) for t in terms]
    items = [sorted(t.items()) for t in terms]
    for i, phi in enumerate(terms):
        heads = tails[i]
        for j, psi in enumerate(terms):
            candidates = set()
            for x in heads.keys() & psi.keys():
                candidates.update(heads[x])
            for s in sorted(candidates):
                t = s.bit_length() - 1
                tail = s ^ (1 << t)
                acc = 0j
                for x, a in items[j]:
                    b = phi.get((x << t) | tail)
                    if b is not None:
                        acc += b.conjugate() * a
                if abs(acc) > EPS:
                    return False, Witness(i, j, BitString(t, tail))
    return True, None


def subspace_prefix_free(basis) -> bool:
    """Prefix-freedom of span(basis); the basis must be orthonormal."""
    basis = list(basis)
    if not is_orthonormal(basis):
        raise ValidationError("subspace test needs an orthonormal basis")
    ok, _ = is_prefix_free(basis)
    return ok


@dataclass(frozen=True)
class PrefixBasis:
    """Validated orthonormal prefix-free basis."""
    vectors: tuple = field(default_factory=tuple)
    is_classical: bool = True

    @classmethod
    def from_vectors(cls, vectors) -> "PrefixBasis":
        vectors = tuple(vectors)
        if not is_orthonormal(vectors):
            raise ValidationError("basis is not orthonormal")
        ok, wit = is_prefix_free(vectors)
        if not ok:
            raise ValidationError("basis is not prefix-free (witness %r)" % (wit,))
        return cls.from_certified(vectors)

    @classmethod
    def from_certified(cls, vectors) -> "PrefixBasis":
        """Wrap vectors already found orthonormal and prefix-free."""
        vectors = tuple(vectors)
        if not vectors:
            raise ValidationError("a prefix basis needs at least one vector")
        classical = all(len(v.terms) == 1 and
                        abs(abs(next(iter(v.terms.values()))) - 1.0) <= EPS
                        for v in vectors)
        return cls(vectors, classical)


def kraft_chain(basis: PrefixBasis) -> KraftChain:
    """The three Kraft sums for an orthonormal prefix-free basis."""
    vecs = basis.vectors
    s_base = math.fsum(2.0 ** (-base_length(v)) for v in vecs)
    s_avg = math.fsum(2.0 ** (-avg_length(v)) for v in vecs)
    trace = math.fsum(abs(a) ** 2 * 2.0 ** (-s.length)
                      for v in vecs for s, a in v.terms.items())
    return KraftChain(s_base, s_avg, trace)


def _residual(v, basis):
    """``v`` as a complex array minus its component along each vector of the
    orthonormal ``basis``, one at a time (modified Gram-Schmidt)."""
    w = np.asarray(v, dtype=complex)
    for u in basis:
        w = w - np.vdot(u, w) * u
    return w


def gram_schmidt(vectors):
    """Orthonormalize ambient vectors in order; returns (orthonormal list, dependent flags).

    An input whose residual norm after projection drops below ``DEP_TOL``
    is flagged as dependent and excluded from the output list.
    """
    ortho = []
    flags = []
    for v in vectors:
        w = _residual(v, ortho)
        nrm = float(np.linalg.norm(w))
        flags.append(nrm < DEP_TOL)
        if not flags[-1]:
            ortho.append(w / nrm)
    return ortho, flags

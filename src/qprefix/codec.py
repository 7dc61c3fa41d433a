"""Optimal lossless compression of an ensemble into prefix-free qubit strings.

The target is the expected *base* length of the encoded states.  Because a
lossless encoder must act isometrically on the span of the ensemble, the
reachable length profiles are governed by two combinatorial objects:

* the monotone entropy of a weight vector p, the minimum of sum_i p_i l_i
  over nondecreasing integer tuples satisfying the Kraft inequality
  sum_i 2^(-l_i) <= 1 (order matters: p is *not* sorted first);
* sequential projections of the ensemble: pick a state, lump together the
  probability of every state inside the span grown so far plus the pick,
  and repeat until all states are consumed.  Each choice order yields a
  grouped weight vector p' whose length equals dim span of the ensemble.

The best achievable rate is min over sequential projections p' of the
monotone entropy of p'.  The constructive side pairs the Gram-Schmidt basis
of the chosen representatives with the canonical prefix code words of the
optimal length tuple.

Kraft feasibility is tracked in exact dyadic integers and objectives in
exact scaled integers (floats are dyadic rationals), so optima and
tie-breaks are decided without rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .prefix import DEP_TOL, gram_schmidt
from .qstring import EPS, BitString, QubitString, base_length

# Resolution for probability comparisons and deduplication of projections.
PROB_TOL = 1e-12
# Enumeration refusal threshold for sequential projections.
MAX_STATES = 20


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite source {(p_i, psi_i)} of unit vectors in C^dimension."""
    dimension: int
    probs: tuple
    vectors: tuple

    def __post_init__(self):
        if len(self.probs) == 0 or len(self.probs) != len(self.vectors):
            raise ValidationError("ensemble needs matching, nonempty probs and vectors")
        if any(p <= 0.0 for p in self.probs):
            raise ValidationError("ensemble probabilities must be strictly positive")
        if abs(math.fsum(self.probs) - 1.0) > EPS:
            raise ValidationError("ensemble probabilities must sum to 1")
        for v in self.vectors:
            if v.shape != (self.dimension,):
                raise ValidationError("state dimension mismatch")
            if abs(np.linalg.norm(v) - 1.0) > EPS:
                raise ValidationError("ensemble states must be unit vectors")

    @classmethod
    def from_states(cls, probs, vectors, dimension=None) -> "Ensemble":
        vecs = tuple(np.asarray(v, dtype=complex) for v in vectors)
        dim = dimension if dimension is not None else (len(vecs[0]) if vecs else 0)
        return cls(dim, tuple(float(p) for p in probs), vecs)

    @property
    def n(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class LengthAssignment:
    """Nondecreasing Kraft-feasible code word lengths with their cost."""
    lengths: tuple
    objective: float

    def __post_init__(self):
        _check_lengths(self.lengths)


def _check_lengths(lengths):
    if len(lengths) == 0:
        raise ValidationError("empty length tuple")
    if any(l < 0 or l != int(l) for l in lengths):
        raise ValidationError("lengths must be nonnegative integers")
    if any(a > b for a, b in zip(lengths, lengths[1:])):
        raise ValidationError("lengths must be nondecreasing")
    top = max(lengths)
    if sum(1 << (top - l) for l in lengths) > (1 << top):
        raise ValidationError("Kraft violation: sum 2^-l exceeds 1")


@dataclass(frozen=True)
class SequentialProjection:
    """Grouped weights p'_k with the witnessing partition and representatives."""
    probs: tuple
    groups: tuple
    reps: tuple

    def __post_init__(self):
        if not (len(self.probs) == len(self.groups) == len(self.reps)):
            raise ValidationError("projection fields must align")
        if abs(math.fsum(self.probs) - 1.0) > EPS:
            raise ValidationError("projection weights must sum to 1")
        for rep, members in zip(self.reps, self.groups):
            if rep not in members:
                raise ValidationError("representative must belong to its group")


def shannon_entropy(p) -> float:
    """Shannon entropy in bits; requires a probability vector."""
    p = [float(x) for x in p]
    if not p or any(x < 0.0 for x in p) or abs(math.fsum(p) - 1.0) > EPS:
        raise ValidationError("not a probability distribution")
    # 0.0 - h, not -h: a one-state source has entropy 0.0, never -0.0
    return 0.0 - math.fsum(x * math.log2(x) for x in p if x > 0.0)


def _scaled_ints(p):
    # exact because every float is a dyadic rational
    fracs = [Fraction(x) for x in p]
    denom = max(f.denominator for f in fracs)
    return [int(f * denom) for f in fracs], denom


def monotone_entropy(p):
    """Minimize sum_i p_i l_i over nondecreasing Kraft-feasible integer tuples.

    Returns (value, LengthAssignment).  A depth-first search walks tuples in
    lexicographic order; branches are cut once the exact partial objective
    plus (remaining mass) * (current level) can no longer beat the best
    tuple, so ties resolve to the lexicographically smallest minimizer.
    Optimal tuples never need entries above max(n-1, ceil(log2 n)): an
    optimum always saturates Kraft (else the first entry of the longest
    block could shrink), and a saturated tuple is the leaf profile of a
    full binary tree, whose depth is at most n-1.
    """
    p = [float(x) for x in p]
    n = len(p)
    if n == 0:
        raise ValidationError("empty distribution")
    if any(x <= 0.0 for x in p):
        raise ValidationError("monotone entropy needs strictly positive weights")
    cap = max(n - 1, math.ceil(math.log2(n))) if n > 1 else 0
    nums, denom = _scaled_ints(p)
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] + nums[i]
    budget = 1 << cap
    best_obj = None
    best = None
    chosen = [0] * n

    def walk(i, floor, used, obj):
        nonlocal best_obj, best
        if i == n:
            if best_obj is None or obj < best_obj:
                best_obj, best = obj, tuple(chosen)
            return
        rest = n - i - 1
        for l in range(floor, cap + 1):
            if best_obj is not None and obj + suffix[i] * l >= best_obj:
                break
            cost = 1 << (cap - l)
            if used + cost + rest > budget:
                continue
            chosen[i] = l
            walk(i + 1, l, used + cost, obj + nums[i] * l)

    walk(0, 0, 0, 0)
    value = float(Fraction(best_obj, denom))
    return value, LengthAssignment(best, value)


def _residual(vec, basis):
    w = np.asarray(vec, dtype=complex).copy()
    for u in basis:
        w = w - np.vdot(u, w) * u
    return w


def sequential_projections(ensemble: Ensemble):
    """All distinct grouped weight vectors p', with one witness grouping each.

    Performs a depth-first search over consumption states.  The span grown
    by any choice order is determined by the set of consumed indices alone,
    which makes the state space memoizable; p' vectors are deduplicated at
    1e-12 resolution.
    """
    n = ensemble.n
    if n > MAX_STATES:
        raise ValidationError("refusing to enumerate projections for more than %d states"
                              % MAX_STATES)
    probs = [float(x) for x in ensemble.probs]
    vecs = [np.asarray(v, dtype=complex) for v in ensemble.vectors]

    basis_cache: dict[frozenset, list] = {}

    def basis_for(consumed: frozenset):
        if consumed not in basis_cache:
            ortho, _ = gram_schmidt([vecs[j] for j in sorted(consumed)], DEP_TOL)
            basis_cache[consumed] = ortho
        return basis_cache[consumed]

    memo: dict[frozenset, list] = {}

    def expand(consumed: frozenset):
        if consumed in memo:
            return memo[consumed]
        remaining = [j for j in range(n) if j not in consumed]
        if not remaining:
            memo[consumed] = [((), (), ())]
            return memo[consumed]
        seen = {}
        span = basis_for(consumed)
        for i in remaining:
            step = _residual(vecs[i], span)
            nrm = float(np.linalg.norm(step))
            if nrm < DEP_TOL:  # cannot happen: dependents were absorbed earlier
                raise ValidationError("internal: representative already in span")
            grown = span + [step / nrm]
            members = tuple(sorted(
                j for j in remaining
                if j == i or float(np.linalg.norm(_residual(vecs[j], grown))) < DEP_TOL))
            weight = math.fsum(probs[j] for j in members)
            for ps, gs, rs in expand(consumed | set(members)):
                cand = ((weight,) + ps, (members,) + gs, (i,) + rs)
                key = tuple(round(x, 12) for x in cand[0])
                if key not in seen:
                    seen[key] = cand
        memo[consumed] = list(seen.values())
        return memo[consumed]

    out = []
    for ps, gs, rs in expand(frozenset()):
        out.append(SequentialProjection(ps, gs, rs))
    return tuple(out)


def optimal_rate(ensemble: Ensemble):
    """Best expected base length over all sequential projections.

    Returns (rate, best projection, best LengthAssignment); ties are broken
    by the lexicographically smallest p'.
    """
    best = None
    for proj in sequential_projections(ensemble):
        value, assignment = monotone_entropy(proj.probs)
        cand = (value, proj.probs, proj, assignment)
        if best is None or cand[:2] < best[:2]:
            best = cand
    return best[0], best[2], best[3]


def canonical_codewords(lengths):
    """Canonical prefix code words for a nondecreasing Kraft-feasible profile.

    Word k is the numerically smallest length-l_k string that keeps the set
    prefix-free: start at 0...0 and step by (previous + 1) << (l_k - l_{k-1}).
    """
    if isinstance(lengths, LengthAssignment):
        lengths = lengths.lengths
    lengths = tuple(int(l) for l in lengths)
    _check_lengths(lengths)
    words = []
    code = 0
    prev = lengths[0]
    for l in lengths:
        code <<= l - prev
        prev = l
        words.append(BitString(l, code))
        code += 1
    return words


@dataclass(frozen=True, eq=False)
class LosslessCode:
    """Isometry from the ensemble span onto canonical prefix code words.

    ``basis_in`` rows are the Gram-Schmidt vectors v_k of the chosen
    representatives; ``isometry`` rows are their conjugates, so that
    ``isometry @ psi`` yields the code-space coordinates <v_k|psi>.
    """
    codewords: tuple
    isometry: np.ndarray
    basis_in: np.ndarray
    projection: SequentialProjection
    rate: float

    @property
    def dimension(self) -> int:
        return self.isometry.shape[1]

    @property
    def lengths(self) -> tuple:
        return tuple(w.length for w in self.codewords)


def build_code(ensemble: Ensemble) -> LosslessCode:
    """Construct an optimal lossless prefix code for the ensemble."""
    rate, proj, assignment = optimal_rate(ensemble)
    reps = [np.asarray(ensemble.vectors[i], dtype=complex) for i in proj.reps]
    ortho, flags = gram_schmidt(reps, DEP_TOL)
    if any(flags):
        raise ValidationError("internal: representatives must be independent")
    basis_in = np.array(ortho)
    words = tuple(canonical_codewords(assignment))
    return LosslessCode(words, basis_in.conj(), basis_in, proj, rate)


def encode(code: LosslessCode, vector) -> QubitString:
    """Map an ambient vector inside the code span to its qubit string."""
    v = np.asarray(vector, dtype=complex)
    if v.shape != (code.dimension,):
        raise ValidationError("vector dimension mismatch")
    coeffs = code.isometry @ v
    if float(np.linalg.norm(v - coeffs @ code.basis_in)) >= DEP_TOL:
        raise ValidationError("vector lies outside the coded span")
    return QubitString({w: c for w, c in zip(code.codewords, coeffs)})


def decode(code: LosslessCode, qstring: QubitString):
    """Invert :func:`encode`; the input must live on the code words."""
    norm_sq = qstring.norm_sq()
    if not math.isfinite(norm_sq):  # inf - inf would pass the test below as NaN
        raise ValidationError("qubit string norm overflows")
    coeffs = np.array([qstring.terms.get(w, 0j) for w in code.codewords])
    residual_sq = norm_sq - float(np.sum(np.abs(coeffs) ** 2))
    if math.sqrt(max(residual_sq, 0.0)) >= DEP_TOL:
        raise ValidationError("qubit string lies outside the code space")
    return coeffs @ code.basis_in


def tensor_ensemble(a: Ensemble, b: Ensemble) -> Ensemble:
    """Product source: probabilities multiply, states tensor."""
    probs = []
    vectors = []
    for pa, va in zip(a.probs, a.vectors):
        for pb, vb in zip(b.probs, b.vectors):
            probs.append(pa * pb)
            vectors.append(np.kron(va, vb))
    return Ensemble(a.dimension * b.dimension, tuple(probs), tuple(vectors))

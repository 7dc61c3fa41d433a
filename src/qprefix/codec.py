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

Both minimisations are one dynamic programme over a code tree grown level
by level (cf. Golin-Rote, IEEE IT 1998).  Its states are (closed set C,
level l, free nodes a): C is the set of states consumed so far, closed
under span, and a counts the unused nodes at depth l.  A state either emits
the group closure(C + {i}) minus C on one node, at cost (group weight) * l,
or descends a level, a becoming min(2a, most picks still to come).  The
work is closed sets x levels x nodes: at most 2^n closed sets, far fewer
when the span is low-dimensional, times O(dim^2) (level, nodes) pairs.
Monotone entropy is the chain case, with the prefixes of p as closed sets,
in O(n^3).  One pass of closures per closed set serves both the DP and the
enumeration :func:`sequential_projections`, which still lists every p' for
``rate --all-projections``.

Span decisions use ``prefix.DEP_TOL`` on residuals against
gram_schmidt(sorted C).  Straggler rule: once a group is formed, any state
whose residual against the grown set's own basis is below DEP_TOL joins it,
until none is left; without it such a state was later picked "inside" the
span and the search failed.

Kraft feasibility is tracked in exact dyadic integers and objectives in
exact scaled integers (floats are dyadic rationals), so optima and
tie-breaks are decided without rounding error.  On random generic
ensembles (Python 3.11, numpy 2.4, one core of a shared 2-CPU machine) the
search takes 0.1 s at n=10, d=5; 0.6 s at n=12, d=6; 2.7 s at n=14, d=7
(6 476 closed sets, against 329 s for the enumeration it replaced); and
16 s at n=16, d=8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .prefix import DEP_TOL, _residual, gram_schmidt
from .qstring import EPS, BitString, QubitString

# Refusal threshold of the rate search and the projection enumeration.
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
        if not all(map(math.isfinite, self.probs)):
            raise ValidationError("ensemble probabilities must be finite")
        if any(p <= 0.0 for p in self.probs):
            raise ValidationError("ensemble probabilities must be strictly positive")
        if abs(math.fsum(self.probs) - 1.0) > EPS:
            raise ValidationError("ensemble probabilities must sum to 1")
        for v in self.vectors:
            if v.shape != (self.dimension,):
                raise ValidationError("state dimension mismatch")
            if not np.isfinite(v).all():
                raise ValidationError("ensemble states must be finite")
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
    if (not p or not all(map(math.isfinite, p)) or any(x < 0.0 for x in p)
            or abs(math.fsum(p) - 1.0) > EPS):
        raise ValidationError("not a probability distribution")
    # 0.0 - h, not -h: a one-state source has entropy 0.0, never -0.0
    return 0.0 - math.fsum(x * math.log2(x) for x in p if x > 0.0)


def _scaled_ints(p):
    # exact because every float is a dyadic rational
    fracs = [Fraction(x) for x in p]
    denom = max(f.denominator for f in fracs)
    return [int(f * denom) for f in fracs], denom


def _level_dp(moves, left):
    """The level recurrence behind every rate here, as (steps, cost).

    A code tree is grown one level at a time; a DP state is (s, l, a), with
    a free nodes at level l.  It either emits one of ``moves(s)``, pairs
    (w, t) of an exact integer weight and the next s, on one node at cost
    w * l, or descends a level, where every free node splits in two.
    ``left(s)`` is the most groups still to come (0 at the end); nodes
    beyond it are never used, so a is capped there and a state with
    a >= left(s) never descends.

    ``steps(state)`` lists (w, cost, next state), emits in ``moves`` order
    and then the descent with w None; ``cost(state)`` is the least cost of
    finishing, memoised.  Walks back from the root follow ``steps``.
    """
    memo = {}

    def steps(state):
        s, l, a = state
        out = [(w, w * l, (t, l, min(a - 1, left(t)))) for w, t in moves(s)
               if a > 1 or not left(t)]  # the last node ends the tree
        if a < left(s):
            out.append((None, 0, (s, l + 1, min(2 * a, left(s)))))
        return out

    def cost(state):
        got = memo.get(state)
        if got is None:
            got = 0
            if left(state[0]):
                got = min(c + cost(nxt) for _, c, nxt in steps(state))
            memo[state] = got
        return got

    return steps, cost


def monotone_entropy(p):
    """Minimize sum_i p_i l_i over nondecreasing Kraft-feasible integer tuples.

    Returns (value, LengthAssignment).  This is the level recurrence of
    :func:`_level_dp` on a chain: state i emits weight i and moves to i + 1,
    over O(n^3) states (index, level, free nodes) in exact integers.  The
    walk back from the root emits whenever emitting stays optimal, which
    gives the item its shortest possible length, so ties resolve to the
    lexicographically smallest minimizer.
    """
    p = [float(x) for x in p]
    n = len(p)
    if n == 0:
        raise ValidationError("empty distribution")
    if not all(map(math.isfinite, p)):
        raise ValidationError("monotone entropy needs finite weights")
    if any(x <= 0.0 for x in p):
        raise ValidationError("monotone entropy needs strictly positive weights")
    nums, denom = _scaled_ints(p)
    steps, cost = _level_dp(lambda i: ((nums[i], i + 1),), lambda i: n - i)
    state, lengths = (0, 0, 1), []
    while state[0] < n:
        w, _, nxt = next(step for step in steps(state)
                         if step[1] + cost(step[2]) == cost(state))
        if w is not None:
            lengths.append(state[1])
        state = nxt
    value = float(Fraction(cost((0, 0, 1)), denom))
    return value, LengthAssignment(tuple(lengths), value)


def _bits(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


class _Closures:
    """Span closures of an ensemble, on bit masks of state indices.

    The one source of groups for :func:`optimal_rate` and
    :func:`sequential_projections`.  A closed set C has the basis
    gram_schmidt(sorted C); every state outside C is projected off that
    basis once per C by ``prefix._residual``, the loop gram_schmidt runs,
    and a pick then costs one more projection per state: picking i adds
    i's unit residual u, and a state joins i's group when its residual off
    u is below DEP_TOL.  Straggler rule: a state whose residual against the
    grown set's own basis is below DEP_TOL joins the group too, repeated
    until none is left, so every state outside a closed set lies at least
    DEP_TOL off its basis and every pick adds a dimension.
    """

    def __init__(self, ensemble: Ensemble):
        if ensemble.n > MAX_STATES:
            raise ValidationError("ensemble has %d states, above the state cap of %d"
                                  % (ensemble.n, MAX_STATES))
        self.probs = [float(x) for x in ensemble.probs]
        self.vecs = [np.asarray(v, dtype=complex) for v in ensemble.vectors]
        self.full = (1 << ensemble.n) - 1
        # every group weighs at least the least state weight, so this
        # denominator makes every group weight an exact integer
        self.denom = 1 << (53 - math.frexp(min(self.probs))[1])
        self._outside = {}
        self._picks = {}
        self._moves = {}
        self._left = {self.full: 0}

    def _residuals(self, closed):
        """(states outside ``closed``, their residuals as rows, residual norms,
        mask of the states whose residual is below DEP_TOL)."""
        got = self._outside.get(closed)
        if got is None:
            basis, _ = gram_schmidt([self.vecs[j] for j in _bits(closed)])
            outside = _bits(self.full & ~closed)
            rows = [_residual(self.vecs[j], basis) for j in outside]
            norms = [float(np.linalg.norm(w)) for w in rows]
            weak = sum(1 << j for j, x in zip(outside, norms) if x < DEP_TOL)
            got = (outside, np.array(rows), norms, weak)
            self._outside[closed] = got
        return got

    def picks(self, closed):
        """(pick, members, weight, grown closed set) for each pick, ascending."""
        got = self._picks.get(closed)
        if got is None:
            outside, rows, norms, _ = self._residuals(closed)
            got = []
            if outside:
                # |w_j|^2 - |<u_i, w_j>|^2, the squared residual of j once i
                # is picked, for every pair at once; its rounding error is
                # far below the bound, so a pair above it is no member and
                # only the rest take the exact test
                sq = np.square(norms)
                gram = np.abs(rows.conj() @ rows.T) ** 2 / sq[:, None]
                near = (sq[None, :] - gram) < (10.0 * DEP_TOL) ** 2
            for k, i in enumerate(outside):
                u = rows[k] / norms[k]
                grown = closed | 1 << i
                for m in np.flatnonzero(near[k]):
                    w = rows[m]
                    if m != k and float(np.linalg.norm(w - np.vdot(u, w) * u)) < DEP_TOL:
                        grown |= 1 << outside[m]
                while grown != self.full and self._residuals(grown)[3]:
                    grown |= self._residuals(grown)[3]
                members = tuple(_bits(grown & ~closed))
                got.append((i, members, math.fsum(self.probs[j] for j in members), grown))
            self._picks[closed] = got
        return got

    def moves(self, closed):
        """Distinct (weight as an integer over ``denom``, grown closed set)."""
        got = self._moves.get(closed)
        if got is None:
            grown = {t: w for _, _, w, t in self.picks(closed)}
            got = []
            for t, w in grown.items():
                num, den = w.as_integer_ratio()
                got.append((num * (self.denom // den), t))
            self._moves[closed] = got
        return got

    def left(self, closed):
        """Most picks still to come from ``closed``."""
        got = self._left.get(closed)
        if got is None:
            got = self._left[closed] = 1 + max(self.left(t) for _, t in self.moves(closed))
        return got

    def first_order(self, key):
        """Picks of the first choice order, depth first, whose p' rounds to ``key``."""
        dead = set()

        def walk(closed, k):
            if k == len(key):
                return () if closed == self.full else None
            if (closed, k) not in dead:
                for pick in self.picks(closed):
                    if round(pick[2], 12) == key[k]:
                        rest = walk(pick[3], k + 1)
                        if rest is not None:
                            return (pick,) + rest
                dead.add((closed, k))
            return None

        return walk(0, 0)


def sequential_projections(ensemble: Ensemble):
    """All distinct grouped weight vectors p', with one witness grouping each.

    Performs a depth-first search over closed sets, picks in ascending
    order; the span grown by any choice order is determined by the set of
    consumed indices alone, which makes the search memoizable.  p' vectors
    are deduplicated at 12-decimal rounding, keeping the first witness.
    """
    closures = _Closures(ensemble)
    memo = {closures.full: [((), (), ())]}

    def expand(closed):
        if closed not in memo:
            seen = {}
            for i, members, weight, grown in closures.picks(closed):
                for ps, gs, rs in expand(grown):
                    cand = ((weight,) + ps, (members,) + gs, (i,) + rs)
                    seen.setdefault(tuple(round(x, 12) for x in cand[0]), cand)
            memo[closed] = list(seen.values())
        return memo[closed]

    return tuple(SequentialProjection(*cand) for cand in expand(0))


def _least_weights(closures, steps, cost, rate):
    """Lexicographically least p', as integers over ``denom``, of float value ``rate``.

    Walks p' one group at a time over a frontier of DP states (closed set,
    level, free nodes), each with the least exact cost spent to reach it.
    A next group, emitted after any number of descents, is admissible when
    that cost plus the best finish still rounds to ``rate``; the least
    admissible weight is taken and every state reaching it kept.  A
    finished state ends the walk, since a prefix sorts first.
    """
    frontier = {(0, 0, 1): 0}
    weights = []
    while all(state[0] != closures.full for state in frontier):
        least, nxt = None, {}
        for state, spent in frontier.items():
            todo = [state]
            while todo:
                for w, c, after in steps(todo.pop()):
                    if w is None:
                        todo.append(after)
                    elif least is None or w <= least:
                        if (spent + c + cost(after)) / closures.denom == rate:
                            if least is None or w < least:
                                least, nxt = w, {}
                            nxt[after] = min(spent + c, nxt.get(after, spent + c))
        weights.append(least)
        frontier = nxt
    return tuple(weights)


def optimal_rate(ensemble: Ensemble):
    """Best expected base length over all sequential projections.

    Returns (rate, best projection, best LengthAssignment).  The level
    recurrence of :func:`_level_dp` runs over (closed set, level, free
    nodes), a group costing its weight times its level, in exact integers.
    Ties are broken as a scan of :func:`sequential_projections` would:
    on the float rate, then the exact p', then the earliest choice order.
    """
    closures = _Closures(ensemble)
    steps, cost = _level_dp(closures.moves, closures.left)
    rate = cost((0, 0, 1)) / closures.denom
    probs = tuple(w / closures.denom for w in _least_weights(closures, steps, cost, rate))
    order = closures.first_order(tuple(round(x, 12) for x in probs))
    if tuple(pick[2] for pick in order) == probs:
        proj = SequentialProjection(probs, tuple(pick[1] for pick in order),
                                    tuple(pick[0] for pick in order))
    else:
        # the enumeration keeps an earlier p' that rounds alike but differs
        # in its last bits, and it may then win with another p'
        proj = min(sequential_projections(ensemble),
                   key=lambda q: (monotone_entropy(q.probs)[0], q.probs))
    value, assignment = monotone_entropy(proj.probs)
    return value, proj, assignment


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
    ortho, flags = gram_schmidt(reps)
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

"""Exhaustive reference solvers.

Small, slow, and deliberately independent of the optimized code paths in
:mod:`qprefix.codec` and :mod:`qprefix.prefix`: monotone entropy is
minimized by enumerating every candidate length tuple, the compression rate
by iterating every permutation of the state indices, and prefix-freedom by
scanning every classical suffix.  The channel reference engine steps a dict
of (Alice, cell, Bob) bit-string configurations one trial and one
configuration at a time, against the batched integer engine of
:mod:`qprefix.channel`.  Probabilities are handled in exact
rational arithmetic (floats are dyadic rationals, so the scaling below is
lossless) and Kraft sums in exact dyadic integers, so the results can be
trusted as test oracles.

Prefix-freedom of zero-padded registers can also be read off reduced
density operators: the code word phi, padded to l_max qubits and reduced to
its first n qubits, must be orthogonal to every other word psi of length n.
The dense test below does that for length eigenvectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import BookResult, ComparisonReport, SimulationReport
from .errors import ValidationError
from .prefix import Witness, is_orthonormal
from .qstring import EPS, BitString, QubitString, base_length, zero_extended

MAX_N = 8
MAX_CAP = 16
# Longest base length the exhaustive suffix scan accepts.
MAX_SCAN_LENGTH = 12
# Qubit count above which dense reduced density matrices are refused.
MAX_FRAGMENT_QUBITS = 12
# Longest register the reference channel engine accepts.
MAX_CHANNEL_LMAX = 16


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: tuple
    search_space_size: int


def _scaled_ints(p):
    # floats are dyadic, so the max denominator is the common denominator
    fracs = [Fraction(float(x)) for x in p]
    denom = max(f.denominator for f in fracs)
    return [int(f * denom) for f in fracs], denom


def hmon_bruteforce(p, cap: int) -> OracleResult:
    """Minimize sum p_i l_i over nondecreasing integer tuples with Kraft sum <= 1.

    Enumerates every nondecreasing tuple with entries in [0, cap] and keeps
    the exact minimum; ties go to the lexicographically smallest tuple.
    """
    p = [float(x) for x in p]
    n = len(p)
    if n == 0:
        raise ValidationError("empty distribution")
    if any(x <= 0.0 for x in p):
        raise ValidationError("weights must be strictly positive")
    if n > MAX_N:
        raise ValidationError("hmon_bruteforce handles at most %d weights" % MAX_N)
    if not 0 <= cap <= MAX_CAP:
        raise ValidationError("cap must lie in [0, %d]" % MAX_CAP)

    nums, denom = _scaled_ints(p)
    full = 1 << cap
    best_obj = None
    best = None
    count = 0
    for tup in itertools.combinations_with_replacement(range(cap + 1), n):
        count += 1
        if sum(1 << (cap - l) for l in tup) > full:
            continue
        obj = sum(w * l for w, l in zip(nums, tup))
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best = tup
    if best is None:
        raise ValidationError("no Kraft-feasible tuple with entries <= %d" % cap)
    return OracleResult(float(Fraction(best_obj, denom)), best, count)


def _rank(mat) -> int:
    if mat.shape[1] == 0:
        return 0
    return int(np.linalg.matrix_rank(mat))


def _choice_orders(ensemble):
    """Every permutation of the state indices, used as a choice order.

    Yields (representatives, grouped probabilities) per permutation: each
    index not absorbed by an earlier group starts a group of every remaining
    state in the span of the absorbed ones plus it.  Group membership is
    decided by a matrix-rank test, which keeps the oracles mechanically
    independent of the Gram-Schmidt bookkeeping in the codec.
    """
    probs = [float(x) for x in ensemble.probs]
    n = len(probs)
    cols = np.column_stack([np.asarray(v, dtype=complex) for v in ensemble.vectors])

    rank_cache: dict[frozenset, int] = {}

    def rank_of(idx_set: frozenset) -> int:
        if idx_set not in rank_cache:
            rank_cache[idx_set] = _rank(cols[:, sorted(idx_set)])
        return rank_cache[idx_set]

    group_cache: dict[tuple, tuple] = {}

    def group_for(consumed: frozenset, rep: int) -> tuple:
        key = (consumed, rep)
        if key not in group_cache:
            span = consumed | {rep}
            r = rank_of(frozenset(span))
            members = [rep]
            for j in range(n):
                if j == rep or j in consumed:
                    continue
                if rank_of(frozenset(span | {j})) == r:
                    members.append(j)
            group_cache[key] = tuple(sorted(members))
        return group_cache[key]

    for perm in itertools.permutations(range(n)):
        consumed: frozenset = frozenset()
        pprime = []
        order = []
        for idx in perm:
            if idx in consumed:
                continue
            members = group_for(consumed, idx)
            pprime.append(math.fsum(probs[j] for j in members))
            order.append(idx)
            consumed = consumed | set(members)
        yield tuple(order), tuple(pprime)


def rate_bruteforce(ensemble) -> OracleResult:
    """Minimum monotone entropy over every choice-order of the ensemble states.

    Each permutation of the indices is used as the sequence of chosen
    representatives; vectors already absorbed by an earlier group are
    skipped (see :func:`_choice_orders`).
    """
    n = len(ensemble.probs)
    if n == 0:
        raise ValidationError("empty ensemble")
    if n > MAX_N:
        raise ValidationError("rate_bruteforce handles at most %d states" % MAX_N)

    hmon_cache: dict[tuple, OracleResult] = {}
    best = None  # (value, order, projection, lengths)
    for order, key in _choice_orders(ensemble):
        if key not in hmon_cache:
            hmon_cache[key] = hmon_bruteforce(key, min(MAX_CAP, 2 * len(key)))
        res = hmon_cache[key]
        cand = (res.value, order, key, res.witness)
        if best is None or cand[0] < best[0]:
            best = cand
    return OracleResult(best[0], (best[1], best[2], best[3]),
                        math.factorial(n))


def projections_bruteforce(ensemble) -> set:
    """Distinct grouped probability vectors reachable by any choice order.

    Same permutation sweep as :func:`rate_bruteforce`, returned as a set of
    tuples rounded to 12 decimals for comparison against the codec output.
    """
    if len(ensemble.probs) > MAX_N:
        raise ValidationError("projections_bruteforce handles at most %d states" % MAX_N)
    return {tuple(round(x, 12) for x in pprime) for _, pprime in _choice_orders(ensemble)}


def prefix_free_bruteforce(vectors):
    """Prefix-freedom by scanning every suffix; returns (flag, witness or None).

    Checks <phi | psi * s> = 0 for every ordered pair and every nonempty
    classical suffix s up to the maximal base length, in (length, value)
    order: 2^(L+1) suffixes per pair, so L is capped.
    """
    vectors = list(vectors)
    nonzero = [v for v in vectors if v.terms]
    if not nonzero:
        return True, None
    l_top = max(base_length(v) for v in nonzero)
    if l_top > MAX_SCAN_LENGTH:
        raise ValidationError("prefix_free_bruteforce handles base lengths up to %d"
                              % MAX_SCAN_LENGTH)
    for i, phi in enumerate(vectors):
        for j, psi in enumerate(vectors):
            for length in range(1, l_top + 1):
                for value in range(1 << length):
                    s = BitString(length, value)
                    acc = 0j
                    for x, a in psi.items_sorted():
                        b = phi.terms.get(x.concat(s))
                        if b is not None:
                            acc += b.conjugate() * a
                    if abs(acc) > EPS:
                        return False, Witness(i, j, s)
    return True, None


@dataclass(frozen=True, eq=False)
class DensityFragment:
    """Reduced density operator on the first ``qubits`` qubits of a register."""
    qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.qubits
        if not 0 <= n <= MAX_FRAGMENT_QUBITS:
            raise ValidationError("dense fragments support at most %d qubits"
                                  % MAX_FRAGMENT_QUBITS)
        m = self.matrix
        if m.shape != (1 << n, 1 << n):
            raise ValidationError("matrix shape does not match qubit count")
        if np.max(np.abs(m - m.conj().T)) > EPS:
            raise ValidationError("reduced state is not Hermitian")
        if abs(np.trace(m).real - 1.0) > EPS:
            raise ValidationError("reduced state trace is not 1")
        if np.linalg.eigvalsh(m).min() < -EPS:
            raise ValidationError("reduced state is not positive semidefinite")

    def expectation(self, psi: QubitString) -> float:
        """<psi| rho |psi> for a state supported on ``qubits``-bit strings."""
        acc = 0j
        for a_bits, a_amp in psi.items_sorted():
            if a_bits.length != self.qubits:
                raise ValidationError("state length does not match the fragment")
            for b_bits, b_amp in psi.items_sorted():
                acc += (a_amp.conjugate()
                        * self.matrix[a_bits.value, b_bits.value] * b_amp)
        return acc.real


def reduced_prefix_state(phi: QubitString, n: int, l_max: int) -> DensityFragment:
    """Trace qubits n+1 .. l_max out of the zero-extended form of ``phi``."""
    if n < 0 or n > l_max:
        raise ValidationError("need 0 <= n <= l_max")
    if n > MAX_FRAGMENT_QUBITS:
        raise ValidationError("dense fragments support at most %d qubits"
                              % MAX_FRAGMENT_QUBITS)
    if not phi.is_normalized():
        raise ValidationError("reduced states are defined for normalized inputs")
    padded = zero_extended(phi, l_max)
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    by_tail: dict[BitString, list] = {}
    for s, a in padded.items_sorted():
        head, tail = s.prefix(n), BitString(l_max - n, s.value & ((1 << (l_max - n)) - 1))
        by_tail.setdefault(tail, []).append((head.value, a))
    for group in by_tail.values():
        for ia, aa in group:
            for ib, ab in group:
                rho[ia, ib] += aa * ab.conjugate()
    return DensityFragment(n, rho)


def _eigen_length(psi: QubitString) -> int:
    lengths = {s.length for s in psi.terms}
    if len(lengths) != 1:
        raise ValidationError("state is not a length eigenvector")
    return lengths.pop()


def distinguishable_by_prefix(vectors) -> bool:
    """Prefix distinguishability of orthonormal length eigenvectors.

    Equivalent to prefix-freedom on such systems: for every ordered pair,
    the reduction of the padded phi to the first len(psi) qubits must not
    overlap psi.
    """
    vectors = list(vectors)
    lengths = [_eigen_length(v) for v in vectors]
    if not is_orthonormal(vectors):
        raise ValidationError("prefix distinguishability needs an orthonormal system")
    l_max = max(lengths)
    for i, phi in enumerate(vectors):
        for j, psi in enumerate(vectors):
            if i == j:
                continue
            rho = reduced_prefix_state(phi, lengths[j], l_max)
            if rho.expectation(psi) > EPS:
                return False
    return True


def _sample_branch(kind: str, q: float, rng) -> str:
    if kind == "none":
        return "I"
    u = float(rng.random())
    if kind == "bitflip":
        return "X" if u < q else "I"
    if kind == "phaseflip":
        return "Z" if u < q else "I"
    # depolarizing: I with 1 - 3q/4, each Pauli with q/4
    if u < 1.0 - 0.75 * q:
        return "I"
    if u < 1.0 - 0.5 * q:
        return "X"
    if u < 1.0 - 0.25 * q:
        return "Y"
    return "Z"


def _channel_start(message: QubitString, l_max: int) -> dict:
    if not 0 <= l_max <= MAX_CHANNEL_LMAX:
        raise ValidationError("the reference channel handles l_max up to %d"
                              % MAX_CHANNEL_LMAX)
    zeros = BitString(l_max, 0)
    return {(s, 0, zeros): a for s, a in zero_extended(message, l_max).terms.items()}


def _channel_step(joint: dict, words: frozenset, i: int, branch: str) -> dict:
    idx = i - 1
    new: dict = {}
    for (a, c, b), amp in joint.items():
        # Alice swaps her i-th qubit with the cell.
        a2 = a.with_bit(idx, c)
        c2 = a.bit(idx)
        # Sampled Kraus branch on the cell.
        if branch == "X":
            c2 = 1 - c2
        elif branch == "Z":
            amp = -amp if c2 else amp
        elif branch == "Y":
            amp = amp * (1j if c2 == 0 else -1j)
            c2 = 1 - c2
        # Bob swaps unless a prefix of his received qubits is a code word.
        if any(b.prefix(k) in words for k in range(i)):
            key = (a2, c2, b)
        else:
            key = (a2, b.bit(idx), b.with_bit(idx, c2))
        new[key] = new.get(key, 0j) + amp
    return new


def _bob_overlap_sq(joint: dict, target: QubitString) -> float:
    # <target| rho_Bob |target> for the pure joint state: group by (Alice, cell).
    acc: dict = {}
    for (a, c, b), amp in joint.items():
        t = target.terms.get(b)
        if t is not None:
            acc[(a, c)] = acc.get((a, c), 0j) + t.conjugate() * amp
    return math.fsum(abs(v) ** 2 for v in acc.values())


def run_bruteforce(message: QubitString, book, l_max: int, noise,
                   trials: int) -> SimulationReport:
    """Reference for :func:`qprefix.channel.run`: one dict trajectory per trial.

    Same generators (trial t draws from ``default_rng(noise.seed + t)``, one
    uniform per step) and the same report fields; the message is taken as
    given, without the span and normalization checks of ``init_channel``.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    start = _channel_start(message, l_max)
    words = frozenset(book.words)
    qs = noise.step_probs(l_max)
    target = zero_extended(message, l_max)

    fids = []
    err_counts = [0] * l_max
    for t in range(trials):
        rng = np.random.default_rng(noise.seed + t)
        joint = start
        for i in range(1, l_max + 1):
            branch = _sample_branch(noise.kind, qs[i - 1], rng)
            if branch != "I":
                err_counts[i - 1] += 1
            joint = _channel_step(joint, words, i, branch)
        fids.append(_bob_overlap_sq(joint, target))

    mean = math.fsum(fids) / trials
    if trials > 1:
        var = math.fsum((f - mean) ** 2 for f in fids) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0

    clean = start
    for i in range(1, l_max + 1):
        clean = _channel_step(clean, words, i, "I")
    zeros = BitString(l_max, 0)
    stray = math.fsum(abs(amp) ** 2 for (a, c, _), amp in clean.items()
                      if a != zeros or c != 0)
    return SimulationReport(trials, mean, stderr, tuple(err_counts),
                            math.sqrt(stray) <= EPS)


def compare_codes_bruteforce(probs, book_a, book_b, noise,
                             trials: int) -> ComparisonReport:
    """Reference for :func:`qprefix.channel.compare_codes`, one trial at a time.

    Symbols come from ``default_rng(noise.seed)``; trial t of book b draws
    its branches from ``default_rng((noise.seed, b, t))``.
    """
    probs = [float(x) for x in probs]
    if (any(not math.isfinite(x) or x < 0.0 for x in probs)
            or abs(math.fsum(probs) - 1.0) > EPS):
        raise ValidationError("not a probability distribution")
    if any(len(book.words) != len(probs) for book in (book_a, book_b)):
        raise ValidationError("book size does not match the distribution")
    if trials < 1:
        raise ValidationError("need at least one trial")

    symbols = np.random.default_rng(noise.seed).choice(
        len(probs), size=trials, p=np.asarray(probs) / math.fsum(probs))

    results = []
    for b_idx, book in enumerate((book_a, book_b)):
        l_max = book.max_length
        qs = noise.step_probs(l_max) if l_max else ()
        words = frozenset(book.words)
        successes = 0
        for t in range(trials):
            word = book.words[int(symbols[t])]
            rng = np.random.default_rng((noise.seed, b_idx, t))
            joint = _channel_start(QubitString({word: 1.0}), l_max)
            for i in range(1, l_max + 1):
                joint = _channel_step(joint, words, i,
                                      _sample_branch(noise.kind, qs[i - 1], rng))
            padded = BitString(l_max, word.value << (l_max - word.length))
            good = math.fsum(abs(amp) ** 2 for (a, c, b), amp in joint.items()
                             if b == padded)
            if good > 1.0 - EPS:
                successes += 1
        rate = successes / trials
        stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
        analytic = None
        if noise.kind == "none":
            analytic = 1.0
        elif (noise.kind == "bitflip" and noise.per_step is None
              and noise.schedule == "constant"):
            analytic = math.fsum(p * (1.0 - noise.q) ** w.length
                                 for p, w in zip(probs, book.words))
        results.append(BookResult(rate, stderr, analytic))
    return ComparisonReport(trials, tuple(results))

"""Always-open channel: one-qubit cell transport of prefix-coded messages.

Alice holds the zero-extended message register, Bob an all-zero register of
the same length, and between them sits a single transmission cell.  Step i
runs three sub-steps, each a permutation of classical configurations and
hence unitary on superpositions:

1. Alice swaps her i-th qubit with the cell.
2. Noise acts on the cell.  Trials are unraveled trajectory-style: one
   Kraus branch (a Pauli, all branch weights state-independent) is sampled
   per step and applied to the whole superposition.
3. Bob swaps his i-th qubit with the cell *unless* some prefix of the
   qubits he already holds forms a complete code word.  Prefix-freedom of
   the book makes that completion test unambiguous, and it is evaluated
   per classical configuration, so superposed messages branch correctly.

Once a branch has delivered its code word, later noise only circulates
between Alice's padding and the cell; with zero noise the final joint state
is exactly |0...0>_A |0>_cell (x) |message, zero-extended>_B.

The engine keeps configurations as packed integers (Alice's and Bob's
registers with the first qubit as the most significant bit, plus the cell
bit) next to a complex amplitude array.  Bob's swap is controlled only by
bits it does not touch, so every sub-step is a bijection of configurations:
a step is bit arithmetic on the rows plus a phase count (Y and Z multiply
amplitudes by powers of i), and rows never merge.  Trials share the start
configurations, so a batch of (trial x configuration) rows is stepped at
once, each row following its own trial's sampled branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .prefix import DEP_TOL
from .qstring import EPS, PRUNE_SQ, BitString, QubitString, base_length

# Register length and support caps; the packed configuration keeps
# 2 * MAX_LMAX + 1 bits, well inside an int64.
MAX_LMAX = 24
MAX_SUPPORT = 1 << 20
# Trials are stepped in chunks of about this many (trial x configuration)
# rows, and their noise is drawn in blocks of at most this many uniforms,
# so memory stays bounded whatever the trial count.
CHUNK_ROWS = 1 << 14

NOISE_KINDS = ("none", "bitflip", "phaseflip", "depolarizing")
SCHEDULES = ("constant", "linear")
# Kraus branches on the cell; the engine stores a branch as its index here.
BRANCHES = "IXYZ"
_X, _Y, _Z = 1, 2, 3
# i**k for the phase count k (mod 4) that Y and Z branches leave on a row.
_PHASES = np.array([1, 1j, -1, -1j])

# numpy's SeedSequence (a pool of four 32-bit words) and PCG64, whose
# streams the trials' noise draws reproduce.  The constants are typed numpy
# scalars, so value-based casting (numpy 1.x) and NEP 50 give the same bits.
_POOL = 4
_MASK32, _MASK64, _MOD128 = (1 << 32) - 1, (1 << 64) - 1, 1 << 128
_HASH_A = (0x43B0D7E5, 0x931E8875)  # mixing entropy into the pool
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


@dataclass(frozen=True)
class NoiseModel:
    """Per-step single-qubit noise on the transmission cell.

    ``schedule`` resolves the flip strength at step i (1-based):
    constant q, or linear min(1, q*i).  ``per_step`` overrides both with an
    explicit tuple, which is how tests pin noise to specific steps.
    """
    kind: str = "none"
    q: float = 0.0
    schedule: str = "constant"
    per_step: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValidationError("unknown noise kind %r" % (self.kind,))
        if self.schedule not in SCHEDULES:
            raise ValidationError("unknown schedule %r" % (self.schedule,))
        if not math.isfinite(self.q):  # reports print q, and JSON has no NaN
            raise ValidationError("noise q must be finite")
        if self.kind != "none":
            if self.schedule == "constant" and not 0.0 <= self.q <= 1.0:
                raise ValidationError("constant noise needs 0 <= q <= 1")
            if self.schedule == "linear" and self.q < 0.0:
                raise ValidationError("linear noise needs q >= 0")
        if self.per_step is not None:
            if any(not 0.0 <= x <= 1.0 for x in self.per_step):
                raise ValidationError("per-step probabilities must lie in [0, 1]")
        if self.seed < 0:  # numpy generators take non-negative seeds only
            raise ValidationError("noise seed must be >= 0")

    def step_probs(self, l_max: int) -> tuple:
        if self.kind == "none":
            return (0.0,) * l_max
        if self.per_step is not None:
            if len(self.per_step) < l_max:
                raise ValidationError("explicit schedule shorter than l_max")
            return tuple(float(x) for x in self.per_step[:l_max])
        if self.schedule == "linear":
            return tuple(min(1.0, self.q * i) for i in range(1, l_max + 1))
        return (float(self.q),) * l_max


@dataclass(frozen=True)
class CodeBook:
    """Classical prefix-free code words; the empty word only stands alone."""
    words: tuple

    def __post_init__(self):
        if not self.words:
            raise ValidationError("empty code book")
        if not (all(isinstance(w, BitString) for w in self.words)
                and _prefix_free_in_text_order(self.words)):
            _raise_first_fault(self.words)

    @classmethod
    def from_texts(cls, texts) -> "CodeBook":
        return cls(tuple(BitString.from_text(t) for t in texts))

    @property
    def max_length(self) -> int:
        return max(w.length for w in self.words)

    @cached_property
    def _keys(self) -> frozenset:
        """Each word packed as one integer, 1 << length | value."""
        return frozenset((1 << w.length) | w.value for w in self.words)

    @cached_property
    def _by_length(self) -> dict:
        """Word values as sorted int64 arrays keyed by length.

        Words longer than MAX_LMAX cannot complete a register and are left out.
        """
        out: dict = {}
        for w in self.words:
            if w.length <= MAX_LMAX:
                out.setdefault(w.length, []).append(w.value)
        return {k: np.sort(np.array(v, dtype=np.int64)) for k, v in out.items()}


def _prefix_free_in_text_order(words) -> bool:
    """True when no word equals or prefixes another.

    In text order (values left-aligned to the longest word, then length) a
    word's copies and extensions directly follow it, so adjacent pairs decide.
    """
    lengths = [w.length for w in words]
    values = [w.value for w in words]
    top = max(lengths)
    order = sorted(range(len(words)),
                   key=lambda k: (values[k] << (top - lengths[k]), lengths[k]))
    return not any(lengths[a] <= lengths[b]
                   and values[b] >> (lengths[b] - lengths[a]) == values[a]
                   for a, b in zip(order, order[1:]))


def _raise_first_fault(words) -> None:
    """Name the first bad word or duplicate, else prefix pair, in book order."""
    seen = set()
    for w in words:
        if not isinstance(w, BitString):
            raise ValidationError("code books hold classical bit strings only")
        if w in seen:
            raise ValidationError("duplicate code word %r" % w.text)
        seen.add(w)
    for a in words:
        for b in words:
            if a != b and a.is_prefix_of(b):
                raise ValidationError("book is not prefix-free: %r prefixes %r"
                                      % (a.text, b.text))


class ChannelState:
    """Joint configuration amplitudes over (Alice bits, cell bit, Bob bits).

    Row k is one configuration: ``alice[k]`` and ``bob[k]`` are the packed
    registers, ``cell[k]`` the cell bit and ``amps[k]`` its amplitude.  The
    constructor validates a ``{(alice, cell, bob): amplitude}`` dict keyed
    by bit strings; states the engine derives from a valid one are not
    checked again.
    """

    __slots__ = ("l_max", "book", "alice", "cell", "bob", "amps")

    def __init__(self, l_max: int, book: CodeBook, joint: dict):
        if not 0 <= l_max <= MAX_LMAX:
            raise ValidationError("l_max must lie in [0, %d]" % MAX_LMAX)
        if len(joint) > MAX_SUPPORT:
            raise ValidationError("joint support exceeds %d configurations" % MAX_SUPPORT)
        total = math.fsum(abs(a) ** 2 for a in joint.values())
        if abs(total - 1.0) > EPS:
            raise ValidationError("joint state must stay normalized")
        for (a, c, b) in joint:
            if a.length != l_max or b.length != l_max or c not in (0, 1):
                raise ValidationError("malformed configuration key")
        self.l_max = l_max
        self.book = book
        self.alice = np.array([a.value for a, _, _ in joint], dtype=np.int64)
        self.cell = np.array([c for _, c, _ in joint], dtype=np.int64)
        self.bob = np.array([b.value for _, _, b in joint], dtype=np.int64)
        self.amps = np.array(list(joint.values()), dtype=complex)

    @classmethod
    def _from_rows(cls, l_max, book, alice, cell, bob, amps) -> "ChannelState":
        state = cls.__new__(cls)
        state.l_max, state.book = l_max, book
        state.alice, state.cell, state.bob, state.amps = alice, cell, bob, amps
        return state

    @property
    def joint(self) -> dict:
        n = self.l_max
        return {(BitString(n, a), c, BitString(n, b)): amp
                for a, c, b, amp in zip(self.alice.tolist(), self.cell.tolist(),
                                        self.bob.tolist(), self.amps.tolist())}

    def completed(self, bob: BitString, received: int) -> bool:
        """True when some prefix of Bob's first ``received`` bits is a code word."""
        words = frozenset(self.book.words)
        return any(bob.prefix(k) in words for k in range(received + 1))


def init_channel(message: QubitString, book: CodeBook, l_max: int) -> ChannelState:
    """Load Alice with the zero-extended message; cell and Bob start at zero.

    The message must be normalized and lie in the span of the book's code
    words; superpositions of words are explicitly allowed.  The rows follow
    :func:`~qprefix.qstring.zero_extended`: terms that pad to the same
    register add up in term order, in the order their registers first
    occur, and sums below ``PRUNE_SQ`` are dropped.
    """
    if not message.is_normalized():
        raise ValidationError("message must be normalized")
    if base_length(message) > l_max:
        raise ValidationError("message does not fit into l_max qubits")
    terms = message.terms
    keys = book._keys
    off = math.fsum(abs(a) ** 2 for s, a in terms.items()
                    if ((1 << s.length) | s.value) not in keys)
    if math.sqrt(off) >= DEP_TOL:
        raise ValidationError("message lies outside the span of the code words")
    if not 0 <= l_max <= MAX_LMAX:
        raise ValidationError("l_max must lie in [0, %d]" % MAX_LMAX)
    # Terms that pad onto one register add up in term order, as in
    # zero_extended; only a term outside the book can collide.
    padded: dict = {}
    for s, a in terms.items():
        v = s.value << (l_max - s.length)
        padded[v] = padded.get(v, 0j) + a
    amps = np.fromiter(padded.values(), dtype=complex, count=len(padded))
    keep = amps.real * amps.real + amps.imag * amps.imag >= PRUNE_SQ
    alice = np.fromiter(padded, dtype=np.int64, count=len(padded))[keep]
    amps = amps[keep]
    if len(amps) > MAX_SUPPORT:
        raise ValidationError("joint support exceeds %d configurations" % MAX_SUPPORT)
    # Without collisions the rows carry the message's amplitudes, whose
    # norm passed above; sums and prunes can move it.
    if (len(padded) < len(terms)
            and abs(math.fsum(abs(a) ** 2 for a in amps.tolist()) - 1.0) > EPS):
        raise ValidationError("joint state must stay normalized")
    zeros = np.zeros(len(amps), dtype=np.int64)
    return ChannelState._from_rows(l_max, book, alice, zeros, zeros.copy(), amps)


def _branch_codes(kind: str, qs, u) -> np.ndarray:
    """Branch indices into BRANCHES from uniform draws u[trial, step]."""
    if kind == "none":
        return np.zeros(np.shape(u), dtype=np.int8)
    q = np.asarray(qs, dtype=float)
    if kind == "bitflip":
        return np.where(u < q, _X, 0).astype(np.int8)
    if kind == "phaseflip":
        return np.where(u < q, _Z, 0).astype(np.int8)
    # depolarizing: I below 1 - 3q/4, then X, Y and Z with q/4 each
    return ((u >= 1.0 - 0.75 * q).astype(np.int8) + (u >= 1.0 - 0.5 * q)
            + (u >= 1.0 - 0.25 * q))


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The SeedSequence hash constants h_0 = init, h_{k+1} = h_k * mult mod 2**32.

    A uint32 column, so a slice of it broadcasts over rows.
    """
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value, consts, k: int, n: int):
    # SeedSequence's hashmix calls k .. k + n - 1, one per row of the result
    # (``value`` is one row, or n rows); uint32 arrays wrap mod 2**32.
    value = (value ^ consts[k:k + n]) * consts[k + 1:k + n + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _seed_state(entropy: list) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` for every row of ``entropy``.

    ``entropy`` holds the rows' little-endian uint32 entropy words as
    columns (uint32 arrays of equal length, at least one column).  Returns
    the four uint64 state words as the rows of one array.
    """
    width = len(entropy)
    # hashmix calls: one per pool word, one per ordered pair of distinct
    # pool words, then one per pool word for each entropy word beyond the pool
    calls = _POOL * _POOL + _POOL * max(0, width - _POOL)
    consts = _hash_consts(*_HASH_A, calls)
    words = np.zeros((_POOL, len(entropy[0])), dtype=np.uint32)
    words[:width] = entropy[:_POOL]
    pool = _hashmix(words, consts, 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        # word src mixes into the other words in order; it does not change
        # meanwhile, so one call per source covers them all
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k, _POOL - 1))
        k += _POOL - 1
    for src in range(_POOL, width):
        pool = _mix(pool, _hashmix(entropy[src], consts, k, _POOL))
        k += _POOL
    consts = _hash_consts(*_HASH_B, 2 * _POOL)
    out = _hashmix(np.tile(pool, (2, 1)), consts, 0, 2 * _POOL).astype(np.uint64)
    return out[0::2] | (out[1::2] << _U32)


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 arrays."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    t = a1 * b0 + ((a0 * b0) >> _U32)
    w = (t & _LOW32) + a0 * b1  # < 2**64: no 32-bit partial sum overflows
    return a1 * b1 + (t >> _U32) + (w >> _U32)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) of a * b mod 2**128 on uint64 limbs."""
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _pcg64_jumps(n: int) -> tuple:
    """(M^(j+2), sum_{k<=j+1} M^k) mod 2**128 for j < n, as uint64 (hi, lo) limbs.

    Seeding leaves PCG64 at (seed + inc) * M + inc and every draw steps
    once more before its output, so draw j reads the state
    (seed + inc) * M^(j+2) + inc * sum_{k<=j+1} M^k.
    """
    mul, add, cols = _PCG_MULT * _PCG_MULT % _MOD128, 1 + _PCG_MULT, []
    for _ in range(n):
        cols.append((mul, add))
        mul, add = mul * _PCG_MULT % _MOD128, (add * _PCG_MULT + 1) % _MOD128
    return tuple(np.array([v >> shift & _MASK64 for v in vals], dtype=np.uint64)
                 for vals in zip(*cols) for shift in (64, 0))


_JUMPS = _pcg64_jumps(MAX_LMAX)


def _pcg64_uniforms(entropy: list, n: int) -> np.ndarray:
    """Row r is ``default_rng(seed_r).random(n)``, seed_r given by its entropy words.

    One broadcast over (rows x n): PCG64 takes seed = words 0-1 and
    inc = (words 2-3 << 1) | 1 of the seed state, each as (hi, lo); each
    draw is the XSL-RR output of its state, and the double is
    (x >> 11) * 2**-53.
    """
    s_hi, s_lo, i_hi, i_lo = (w[:, None] for w in _seed_state(entropy))
    i_hi, i_lo = (i_hi << _U1) | (i_lo >> _U63), (i_lo << _U1) | _U1
    x_lo = s_lo + i_lo
    x_hi = s_hi + i_hi + (x_lo < s_lo)
    m_hi, m_lo, a_hi, a_lo = (c[:n] for c in _JUMPS)
    hi1, lo1 = _mul128(x_hi, x_lo, m_hi, m_lo)
    hi2, lo2 = _mul128(i_hi, i_lo, a_hi, a_lo)
    lo = lo1 + lo2
    hi = hi1 + hi2 + (lo < lo1)
    rot = hi >> _U58
    v = hi ^ lo
    v = (v >> rot) | (v << ((_U64 - rot) & _U63))
    return (v >> _U11).astype(np.float64) * 2.0 ** -53


def _int_words(x: int) -> list:
    """Little-endian 32-bit words of x >= 0; 0 gives the single word 0."""
    words = [x & _MASK32]
    while x >> 32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _uniforms(head: tuple, start: int, stop: int, n: int) -> np.ndarray:
    """Row v - start is ``default_rng(head + (v,)).random(n)`` for start <= v < stop.

    The entropy of ``head + (v,)`` is the little-endian 32-bit words of each
    integer, concatenated.  Between multiples of 2**32 only v's lowest word
    changes, so those rows share a word count and every other word; they
    are drawn in blocks of at most CHUNK_ROWS draws.
    """
    out = np.empty((stop - start, n))
    if not n:
        return out
    fixed = [w for x in head for w in _int_words(x)]
    block = max(1, CHUNK_ROWS // n)
    v = start
    while v < stop:
        end = min(stop, v + block, (v | _MASK32) + 1)
        rows = end - v
        low = np.arange(rows, dtype=np.uint32) + np.uint32(v & _MASK32)
        upper = _int_words(v >> 32) if v >> 32 else []
        entropy = ([np.full(rows, w, dtype=np.uint32) for w in fixed] + [low]
                   + [np.full(rows, w, dtype=np.uint32) for w in upper])
        out[v - start:end - start] = _pcg64_uniforms(entropy, n)
        v = end
    return out


def _draw_branches(kind: str, qs, head: tuple, start: int, stop: int) -> np.ndarray:
    """Branch codes of trials start..stop-1, one column per step.

    Trial v draws ``default_rng(head + (v,)).random(len(qs))``, and
    ``default_rng((v,))`` is ``default_rng(v)``.  The streams of all trials
    are computed at once by :func:`_uniforms`, bit for bit, without building
    a generator per trial.
    """
    if kind == "none" or not len(qs):
        return np.zeros((stop - start, len(qs)), dtype=np.int8)
    return _branch_codes(kind, qs, _uniforms(head, start, stop, len(qs)))


def _evolve(alice, cell, bob, codes, first: int, l_max: int, words: dict):
    """Run steps first, first + 1, ... on a batch of configuration rows.

    ``alice``, ``cell`` and ``bob`` broadcast against (trials, 1); column j
    of ``codes`` holds every trial's branch at step first + j.  Returns the
    (alice, cell, bob) arrays; :func:`_phases` gives the amplitudes' phases.
    """
    shape = np.broadcast_shapes(np.shape(alice), (codes.shape[0], 1))
    a, c, b = (np.broadcast_to(x, shape).copy() for x in (alice, cell, bob))
    live = np.ones(shape, dtype=bool)

    def complete(k):
        # Bob's first k bits are final once step k is over, so a word of
        # length k completes him for good: the flag is sticky.
        if k in words:
            head = b >> (l_max - k)
            found = np.take(words[k], np.searchsorted(words[k], head), mode="clip")
            live[...] &= found != head

    for k in range(first - 1):
        complete(k)
    flip = (codes == _X) | (codes == _Y)
    for j in range(codes.shape[1]):
        i = first + j
        shift = l_max - i
        complete(i - 1)
        # Until step i, Alice's and Bob's i-th qubits are as they came in.
        x = (alice >> shift) & 1
        # Alice swaps her i-th qubit with the cell; X and Y flip the cell.
        a ^= (c ^ x) << shift
        c = x ^ flip[:, j, None]
        # Bob swaps his i-th qubit with the cell unless he is complete.
        d = (c ^ ((bob >> shift) & 1)) & live
        b ^= d << shift
        c ^= d
    return a, c, b


def _phases(alice, codes, first: int, l_max: int) -> np.ndarray:
    """Phase count k (amplitude factor i**k) of each (trial, row of ``alice``).

    When step i's branch acts, the cell holds Alice's i-th qubit as it came
    in, whatever Bob does: Z signs |1> (k += 2 bit), and Y maps |0> to i|1>
    and |1> to -i|0> (k += 1 + 2 bit).  One integer product sums the steps.
    """
    shifts = l_max - np.arange(first, first + codes.shape[1])
    bits = (alice >> shifts[:, None]) & 1
    signs = ((codes == _Y) | (codes == _Z)).astype(np.int64)
    return 2 * (signs @ bits) + np.count_nonzero(codes == _Y, axis=1)[:, None]


def _apply_step(state: ChannelState, i: int, branch: str) -> ChannelState:
    if not 1 <= i <= state.l_max:
        raise ValidationError("step index out of range")
    codes = np.array([[BRANCHES.index(branch)]], dtype=np.int8)
    a, c, b = _evolve(state.alice, state.cell, state.bob, codes, i,
                      state.l_max, state.book._by_length)
    phase = _phases(state.alice, codes, i, state.l_max)
    return ChannelState._from_rows(state.l_max, state.book, a[0], c[0], b[0],
                                   state.amps * _PHASES[phase[0] & 3])


def protocol_step(state: ChannelState, i: int, noise: NoiseModel, rng) -> ChannelState:
    """One full channel step: Alice swap, sampled noise branch, Bob's swap."""
    if not 1 <= i <= state.l_max:
        raise ValidationError("step index out of range")
    q = noise.step_probs(state.l_max)[i - 1]
    u = rng.random() if noise.kind != "none" else 0.0
    code = _branch_codes(noise.kind, (q,), np.array([[u]]))[0, 0]
    return _apply_step(state, i, BRANCHES[code])


def _bob_fidelities(rows, phase, start: ChannelState) -> list:
    """<message| rho_Bob |message> for each trial (row) of ``rows``.

    The zero-extended message is Alice's start register, so ``start`` holds
    the target amplitudes too.  A trial's joint state is pure: the overlap
    sums conj(target(b)) * amp over each (Alice, cell) group, in row order,
    and adds the squared magnitudes of the group sums.
    """
    a, c, b = rows
    order = np.argsort(start.alice)
    t_val, t_amp = start.alice[order], start.amps[order]
    pos = np.minimum(np.searchsorted(t_val, b), len(t_val) - 1)
    hit = t_val[pos] == b
    amp = (start.amps * _PHASES[phase & 3])[hit]
    t = t_amp[pos[hit]]
    # conj(t) * amp, one rounding per operation as in complex arithmetic
    re = t.real * amp.real + t.imag * amp.imag
    im = t.real * amp.imag - t.imag * amp.real
    trial = np.nonzero(hit)[0]
    shift = start.l_max + 1
    groups, inverse = np.unique((trial << shift) | (a[hit] << 1) | c[hit],
                                return_inverse=True)
    sum_re = np.bincount(inverse, weights=re, minlength=len(groups))
    sum_im = np.bincount(inverse, weights=im, minlength=len(groups))
    # abs(complex(x, y)) is hypot(x, y); Python's ** 2 (pow) is kept, since
    # h * h can differ from it in the last bit.
    squares = [h ** 2 for h in np.hypot(sum_re, sum_im).tolist()]
    # groups are sorted, so each trial's groups are one run
    ends = np.searchsorted(groups >> shift, np.arange(phase.shape[0] + 1)).tolist()
    return [math.fsum(squares[lo:hi]) for lo, hi in zip(ends, ends[1:])]


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    mean_fidelity: float
    fidelity_std_err: float
    per_step_error_counts: tuple
    disentangled: bool


def run(message: QubitString, book: CodeBook, l_max: int,
        noise: NoiseModel, trials: int) -> SimulationReport:
    """Monte-Carlo trajectories of the protocol; fidelity is measured on Bob.

    Trial t draws one uniform per step from the stream of
    ``default_rng(noise.seed + t)``, computed for a chunk of trials at once,
    so reports are reproducible and trials are independent.
    ``disentangled`` reports the zero-noise factorization (Alice and cell
    back to zero), evaluated on a noiseless trajectory that rides along in
    the first chunk as one all-identity row.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    start = init_channel(message, book, l_max)
    qs = noise.step_probs(l_max)
    rows = (start.alice, start.cell, start.bob)

    fids = []
    err_counts = np.zeros(l_max, dtype=np.int64)
    chunk = max(1, CHUNK_ROWS // len(start.amps))
    for t0 in range(0, trials, chunk):
        codes = _draw_branches(noise.kind, qs, (), noise.seed + t0,
                               noise.seed + min(trials, t0 + chunk))
        err_counts += np.count_nonzero(codes, axis=0)
        if t0 == 0:
            codes = np.concatenate([np.zeros((1, l_max), dtype=np.int8), codes])
        a, c, b = _evolve(*rows, codes, 1, l_max, book._by_length)
        if t0 == 0:
            stray = start.amps[(a[0] != 0) | (c[0] != 0)]
            a, c, b, codes = a[1:], c[1:], b[1:], codes[1:]
        fids += _bob_fidelities((a, c, b), _phases(start.alice, codes, 1, l_max), start)

    mean = math.fsum(fids) / trials
    if trials > 1:
        var = math.fsum((f - mean) ** 2 for f in fids) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    disentangled = math.sqrt(math.fsum(abs(x) ** 2 for x in stray.tolist())) <= EPS

    return SimulationReport(trials, mean, stderr, tuple(err_counts.tolist()), disentangled)


@dataclass(frozen=True)
class BookResult:
    success_rate: float
    std_err: float
    analytic: float | None


@dataclass(frozen=True)
class ComparisonReport:
    trials: int
    results: tuple


def compare_codes(probs, book_a: CodeBook, book_b: CodeBook,
                  noise: NoiseModel, trials: int) -> ComparisonReport:
    """Race two code books over the same message distribution.

    Message symbol j is drawn once per trial and sent as word j of each
    book; success means Bob's register holds exactly the zero-extended word.
    Trial t of book b draws its branches from the stream of
    ``default_rng((seed, b, t))``; the streams of a chunk of trials are
    computed at once, without building a generator per trial.

    A trial is scored from its branches alone, without stepping the
    channel: it succeeds exactly when no X or Y branch falls on steps
    1..len(w).  Until Bob holds a code word, step i hands him the cell,
    which carries Alice's i-th bit flipped by X or Y (Z and Y's phases
    leave a single word's configuration on the same bits).  Bob's bit i
    is final once step i is over, and no proper prefix of w is a code
    word, so with no flip he completes w at step len(w) and swaps no
    more; a first flip at step i <= len(w) leaves a wrong bit i for good.
    When no step can flip a bit, every trial succeeds and nothing is
    drawn.  For constant bit-flip noise that rule gives the closed form
    sum_j p_j (1-q)^len(w_j), attached for reference.
    """
    probs = [float(x) for x in probs]
    if (any(not math.isfinite(x) or x < 0.0 for x in probs)
            or abs(math.fsum(probs) - 1.0) > EPS):
        raise ValidationError("not a probability distribution")
    for book in (book_a, book_b):
        if len(book.words) != len(probs):
            raise ValidationError("book size does not match the distribution")
    if trials < 1:
        raise ValidationError("need at least one trial")

    symbols = np.random.default_rng(noise.seed).choice(
        len(probs), size=trials, p=np.asarray(probs) / math.fsum(probs))

    results = []
    for b_idx, book in enumerate((book_a, book_b)):
        l_max = book.max_length
        qs = noise.step_probs(l_max) if l_max else ()
        if l_max > MAX_LMAX:
            raise ValidationError("l_max must lie in [0, %d]" % MAX_LMAX)
        successes = trials
        if noise.kind in ("bitflip", "depolarizing") and any(qs):
            lengths = np.array([w.length for w in book.words])
            for t0 in range(0, trials, CHUNK_ROWS):
                sym = symbols[t0:t0 + CHUNK_ROWS]
                codes = _draw_branches(noise.kind, qs, (noise.seed, b_idx),
                                       t0, t0 + len(sym))
                exposed = np.arange(l_max) < lengths[sym, None]
                flipped = ((codes == _X) | (codes == _Y)) & exposed
                successes -= int(np.count_nonzero(flipped.any(axis=1)))
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

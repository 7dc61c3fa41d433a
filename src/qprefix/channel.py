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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstring import EPS, BitString, QubitString, base_length, zero_extended

# Register length and support caps; beyond these the dict-of-configurations
# representation stops being a sensible tool.
MAX_LMAX = 24
MAX_SUPPORT = 1 << 20
# Span membership tolerance for messages, matching the codec's dependence cut.
SPAN_TOL = 1e-7

NOISE_KINDS = ("none", "bitflip", "phaseflip", "depolarizing")
SCHEDULES = ("constant", "linear")


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
        if self.kind != "none":
            if self.schedule == "constant" and not 0.0 <= self.q <= 1.0:
                raise ValidationError("constant noise needs 0 <= q <= 1")
            if self.schedule == "linear" and self.q < 0.0:
                raise ValidationError("linear noise needs q >= 0")
        if self.per_step is not None:
            if any(not 0.0 <= x <= 1.0 for x in self.per_step):
                raise ValidationError("per-step probabilities must lie in [0, 1]")

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
        seen = set()
        for w in self.words:
            if not isinstance(w, BitString):
                raise ValidationError("code books hold classical bit strings only")
            if w in seen:
                raise ValidationError("duplicate code word %r" % w.text)
            seen.add(w)
        # The words a word prefixes follow it directly in text order, so
        # adjacent pairs decide; the full scan only names the first pair.
        ordered = sorted(self.words, key=lambda w: w.text)
        if any(a.is_prefix_of(b) for a, b in zip(ordered, ordered[1:])):
            for a in self.words:
                for b in self.words:
                    if a != b and a.is_prefix_of(b):
                        raise ValidationError("book is not prefix-free: %r prefixes %r"
                                              % (a.text, b.text))
        if len(self.words) > 1 and any(w.length == 0 for w in self.words):
            raise ValidationError("the empty word is only allowed as the sole word")

    @classmethod
    def from_texts(cls, texts) -> "CodeBook":
        return cls(tuple(BitString.from_text(t) for t in texts))

    @property
    def max_length(self) -> int:
        return max(w.length for w in self.words)


class ChannelState:
    """Joint configuration amplitudes over (Alice bits, cell bit, Bob bits)."""

    __slots__ = ("l_max", "book", "joint", "_words")

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
        self.joint = joint
        self._words = frozenset(book.words)

    def completed(self, bob: BitString, received: int) -> bool:
        """True when some prefix of Bob's first ``received`` bits is a code word."""
        return any(bob.prefix(k) in self._words for k in range(received + 1))


def init_channel(message: QubitString, book: CodeBook, l_max: int) -> ChannelState:
    """Load Alice with the zero-extended message; cell and Bob start at zero.

    The message must be normalized and lie in the span of the book's code
    words; superpositions of words are explicitly allowed.
    """
    if not message.is_normalized():
        raise ValidationError("message must be normalized")
    if base_length(message) > l_max:
        raise ValidationError("message does not fit into l_max qubits")
    words = frozenset(book.words)
    off = math.fsum(abs(a) ** 2 for s, a in message.items_sorted() if s not in words)
    if math.sqrt(off) >= SPAN_TOL:
        raise ValidationError("message lies outside the span of the code words")
    padded = zero_extended(message, l_max)
    zeros = BitString(l_max, 0)
    joint = {(s, 0, zeros): a for s, a in padded.terms.items()}
    return ChannelState(l_max, book, joint)


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


def _apply_step(state: ChannelState, i: int, branch: str) -> ChannelState:
    if not 1 <= i <= state.l_max:
        raise ValidationError("step index out of range")
    idx = i - 1
    new: dict = {}
    for (a, c, b), amp in state.joint.items():
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
        if state.completed(b, i - 1):
            key = (a2, c2, b)
        else:
            key = (a2, b.bit(idx), b.with_bit(idx, c2))
        new[key] = new.get(key, 0j) + amp
    return ChannelState(state.l_max, state.book, new)


def protocol_step(state: ChannelState, i: int, noise: NoiseModel, rng) -> ChannelState:
    """One full channel step: Alice swap, sampled noise branch, Bob's swap."""
    if not 1 <= i <= state.l_max:
        raise ValidationError("step index out of range")
    q = noise.step_probs(state.l_max)[i - 1]
    return _apply_step(state, i, _sample_branch(noise.kind, q, rng))


def _bob_overlap_sq(state: ChannelState, target: QubitString) -> float:
    # <target| rho_Bob |target> for the pure joint state: group by (Alice, cell).
    acc: dict = {}
    for (a, c, b), amp in state.joint.items():
        t = target.terms.get(b)
        if t is not None:
            acc[(a, c)] = acc.get((a, c), 0j) + t.conjugate() * amp
    return math.fsum(abs(v) ** 2 for v in acc.values())


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

    Trial t reseeds its generator at noise.seed + t, so reports are
    reproducible and trials are independent.  ``disentangled`` reports the
    zero-noise factorization (Alice and cell back to zero), evaluated on a
    dedicated noiseless trajectory.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    start = init_channel(message, book, l_max)
    qs = noise.step_probs(l_max)
    target = zero_extended(message, l_max)

    fids = []
    err_counts = [0] * l_max
    for t in range(trials):
        rng = np.random.default_rng(noise.seed + t)
        state = start
        for i in range(1, l_max + 1):
            branch = _sample_branch(noise.kind, qs[i - 1], rng)
            if branch != "I":
                err_counts[i - 1] += 1
            state = _apply_step(state, i, branch)
        fids.append(_bob_overlap_sq(state, target))

    mean = math.fsum(fids) / trials
    if trials > 1:
        var = math.fsum((f - mean) ** 2 for f in fids) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0

    clean = start
    for i in range(1, l_max + 1):
        clean = _apply_step(clean, i, "I")
    zeros = BitString(l_max, 0)
    stray = math.fsum(abs(amp) ** 2 for (a, c, _), amp in clean.joint.items()
                      if a != zeros or c != 0)
    disentangled = math.sqrt(stray) <= EPS

    return SimulationReport(trials, mean, stderr, tuple(err_counts), disentangled)


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
    For constant bit-flip noise the closed form sum_j p_j (1-q)^len(w_j) is
    attached for reference (errors after completion cannot reach Bob).
    """
    probs = [float(x) for x in probs]
    if any(x < 0.0 for x in probs) or abs(math.fsum(probs) - 1.0) > EPS:
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
        successes = 0
        for t in range(trials):
            word = book.words[int(symbols[t])]
            rng = np.random.default_rng((noise.seed, b_idx, t))
            state = init_channel(QubitString({word: 1.0}), book, l_max)
            for i in range(1, l_max + 1):
                state = _apply_step(state, i, _sample_branch(noise.kind, qs[i - 1], rng))
            padded = BitString(l_max, word.value << (l_max - word.length))
            good = math.fsum(abs(amp) ** 2 for (a, c, b), amp in state.joint.items()
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

"""The always-open channel: swaps, sampled noise branches, completion."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_dist, random_prefix_code
from qprefix import (BitString, CodeBook, NoiseModel, QubitString,
                     ValidationError, channel, compare_codes,
                     compare_codes_bruteforce, init_channel, ket, run,
                     run_bruteforce)
from qprefix.bruteforce import _channel_start, _channel_step, _sample_branch
from qprefix.qstring import EPS
from qprefix.serialize import round_floats

BOOK = CodeBook.from_texts(["0", "10", "11"])
FIXED = CodeBook.from_texts(["00", "01", "10"])
PLUS = (ket("0") + ket("10")).normalized()
NONE = NoiseModel()


def key(a, c, b):
    return (BitString.from_text(a), c, BitString.from_text(b))


def evolved(message, book, l_max, branches):
    """The engine's joint {key: amplitude} after steps 1..len(branches).

    One trial, its branch at each step forced by the letters of ``branches``.
    """
    alice, amps = init_channel(message, book, l_max)
    codes = np.array([["IXYZ".index(x) for x in branches]], dtype=np.int8)
    a, c, b = channel._evolve(alice, codes, l_max, book._by_length)
    amps = amps * channel._PHASES[channel._phases(alice, codes, l_max)[0] & 3]
    return {(BitString(l_max, x), y, BitString(l_max, z)): amp
            for x, y, z, amp in zip(a[0].tolist(), c[0].tolist(), b[0].tolist(),
                                    amps.tolist())}


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel("gamma", 0.1)
    with pytest.raises(ValidationError):
        NoiseModel("bitflip", 1.5)
    with pytest.raises(ValidationError):
        NoiseModel("bitflip", 0.5, "quadratic")
    with pytest.raises(ValidationError):
        NoiseModel("bitflip", 0.5, per_step=(0.5, 2.0))
    for kind, q, schedule in (("bitflip", math.nan, "linear"),
                              ("depolarizing", math.inf, "linear"),
                              ("none", math.nan, "constant")):
        with pytest.raises(ValidationError):
            NoiseModel(kind, q, schedule)


def test_step_probs_schedules():
    assert NoiseModel("none", 0.9).step_probs(3) == (0.0, 0.0, 0.0)
    assert NoiseModel("bitflip", 0.25).step_probs(2) == (0.25, 0.25)
    lin = NoiseModel("bitflip", 0.3, "linear").step_probs(4)
    assert lin == pytest.approx((0.3, 0.6, 0.9, 1.0), abs=1e-12)
    pinned = NoiseModel("bitflip", 0.0, per_step=(0.0, 1.0, 0.5))
    assert pinned.step_probs(2) == (0.0, 1.0)
    with pytest.raises(ValidationError):
        pinned.step_probs(4)


def test_code_book_validation():
    assert BOOK.max_length == 2
    assert CodeBook.from_texts([""]).max_length == 0
    with pytest.raises(ValidationError):
        CodeBook.from_texts(["0", "0"])
    with pytest.raises(ValidationError):
        CodeBook.from_texts(["0", "01"])
    with pytest.raises(ValidationError):
        CodeBook.from_texts(["", "1"])  # empty word swallows everything


def test_invalid_books_name_the_first_pair_in_book_order():
    # text order meets '0' < '01' first; the message names the book-order pair
    with pytest.raises(ValidationError,
                       match=r"^book is not prefix-free: '1' prefixes '10'$"):
        CodeBook.from_texts(["1", "0", "01", "10"])
    with pytest.raises(ValidationError,
                       match=r"^book is not prefix-free: '' prefixes '1'$"):
        CodeBook.from_texts(["1", ""])


def test_books_with_words_beyond_an_int64_keep_their_messages():
    long0, long1 = "1" * 70 + "0", "1" * 70 + "1"
    book = CodeBook.from_texts(["0", "10", "110", long0, long1])
    assert book.max_length == 71
    cases = ((["0", long0, "10", long0], "duplicate code word %r" % long0),
             (["0", "1" * 64, "10", long1], "book is not prefix-free: %r prefixes %r"
              % ("1" * 64, long1)),
             ([long0, "0", "1" * 70], "book is not prefix-free: %r prefixes %r"
              % ("1" * 70, long0)),
             ([long1, ""], "book is not prefix-free: '' prefixes %r" % long1))
    for texts, message in cases:
        with pytest.raises(ValidationError) as err:
            CodeBook.from_texts(texts)
        assert str(err.value) == message
    # the register is capped long before a word overflows an int64
    with pytest.raises(ValidationError, match=r"^l_max must lie in \[0, 24\]$"):
        run(ket("10"), book, 71, NONE, 1)
    with pytest.raises(ValidationError, match=r"^l_max must lie in \[0, 24\]$"):
        compare_codes((0.2,) * 5, book, book, NONE, 3)
    with pytest.raises(ValidationError, match=r"^l_max must lie in \[0, 24\]$"):
        init_channel(ket("10"), book, 10**9)  # rejected before any padding
    # words longer than the register can never complete it
    noise = NoiseModel("depolarizing", 0.5, seed=3)
    assert run(ket("10"), book, 3, noise, 20) == run(
        ket("10"), CodeBook.from_texts(["0", "10", "110"]), 3, noise, 20)


@given(st.integers(0, 2**30))
def test_book_check_matches_the_pairwise_scan(seed):
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 40)), max_len=8)
    for _ in range(int(rng.integers(3))):
        ext = words[int(rng.integers(len(words)))].concat(
            BitString(1, int(rng.integers(2))))
        if ext not in words:
            words.insert(int(rng.integers(len(words) + 1)), ext)
    rng.shuffle(words)
    first = next(((a, b) for a in words for b in words
                  if a != b and a.is_prefix_of(b)), None)
    if first is None:
        assert CodeBook(tuple(words)).words == tuple(words)
    else:
        with pytest.raises(ValidationError) as err:
            CodeBook(tuple(words))
        assert str(err.value) == ("book is not prefix-free: %r prefixes %r"
                                  % (first[0].text, first[1].text))


def test_init_channel_shapes_the_joint():
    # the start rows hold Alice's zero-extended registers; cell and Bob are 0
    alice, amps = init_channel(PLUS, BOOK, 2)
    assert (alice.dtype, amps.dtype) == (np.int64, np.complex128)
    assert alice.tolist() == [0b00, 0b10]
    assert amps.tolist() == pytest.approx([1.0 / math.sqrt(2.0)] * 2)
    with pytest.raises(ValidationError):
        init_channel(ket("0", 0.5), BOOK, 2)
    with pytest.raises(ValidationError):
        init_channel(ket("110"), BOOK, 2)  # does not fit
    with pytest.raises(ValidationError):
        init_channel(ket("01"), BOOK, 2)  # outside the span of the words


@given(st.integers(0, 2**30))
def test_start_rows_match_the_reference_start(seed):
    # Strays off the span (far below DEP_TOL) may pad onto a word's register
    # or onto each other; their amplitudes then add in term order, and an
    # exact cancellation is pruned, as in the reference's zero_extended.
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 12)), max_len=5,
                               full=bool(rng.integers(2)))
    book = CodeBook(tuple(words))
    l_max = book.max_length + int(rng.integers(0, 3))
    terms = dict(_superposed(rng, words).terms)
    for _ in range(int(rng.integers(0, 5))):
        w = words[int(rng.integers(len(words)))]
        cut = int(rng.integers(0, w.length + 1))
        s = (w.prefix(cut) if rng.random() < 0.5
             else w.concat(BitString(int(rng.integers(1, 3)), 0)))
        if s in book.words or s.length > l_max:
            continue
        amp = 10.0 ** rng.uniform(-12, -9) * np.exp(2j * np.pi * rng.random())
        terms[s] = amp
        if rng.random() < 0.3 and s.length < l_max:
            zero = s.concat(BitString(1, 0))
            if zero not in book.words and zero not in terms:
                terms[zero] = -amp  # pads onto s's register and cancels it
    keys = list(terms)
    message = QubitString({keys[k]: terms[keys[k]] for k in rng.permutation(len(keys))})
    reference = _channel_start(message, l_max)
    try:
        alice, amps = init_channel(message, book, l_max)
    except ValidationError as err:
        # a stray can lift the padded norm by more than EPS; nothing else fails
        assert str(err) == "joint state must stay normalized"
        assert abs(math.fsum(abs(a) ** 2 for a in reference.values()) - 1.0) > EPS
        return
    assert [(a, 0, 0) for a in alice.tolist()] == [
        (a.value, c, b.value) for a, c, b in reference]
    assert amps.tolist() == list(reference.values())


def test_start_rows_sum_a_stray_into_its_words_register():
    book = CodeBook.from_texts(["0", "10", "11"])
    message = QubitString({"0": 0.6, "1": 1e-9j, "10": 0.8})  # "1" pads onto "10"
    alice, amps = init_channel(message, book, 2)
    assert alice.tolist() == [0b00, 0b10]
    assert amps.tolist() == [0.6, 0.8 + 1e-9j]
    assert amps.tolist() == list(_channel_start(message, 2).values())
    lifted = QubitString({"0": 0.6, "1": 1e-8, "10": 0.8})  # norm moves by 1.6e-8
    with pytest.raises(ValidationError, match=r"^joint state must stay normalized$"):
        init_channel(lifted, book, 2)


def test_completion_predicate():
    # Bob completes "10" at step 2 and ignores a flip at step 3, but is not
    # complete after step 1, so a flip at step 2 reaches him.
    for per_step, fidelity in (((0.0, 0.0, 1.0), 1.0), ((0.0, 1.0, 0.0), 0.0)):
        noise = NoiseModel("bitflip", 0.0, per_step=per_step)
        assert run(ket("10"), BOOK, 3, noise, 3).mean_fidelity == fidelity


def test_two_noiseless_steps_deliver_the_message():
    amp = 1.0 / math.sqrt(2.0)
    delivered = {key("00", 0, "00"): amp, key("00", 0, "10"): amp}
    assert evolved(PLUS, BOOK, 2, "I") == pytest.approx(delivered)
    assert evolved(PLUS, BOOK, 2, "II") == pytest.approx(delivered)


def test_sampled_branch_thresholds():
    class Stub:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    assert _sample_branch("none", 1.0, Stub(0.0)) == "I"
    assert _sample_branch("bitflip", 0.5, Stub(0.4)) == "X"
    assert _sample_branch("bitflip", 0.5, Stub(0.6)) == "I"
    assert _sample_branch("phaseflip", 0.5, Stub(0.4)) == "Z"
    for u, branch in ((0.1, "I"), (0.3, "X"), (0.6, "Y"), (0.9, "Z")):
        assert _sample_branch("depolarizing", 1.0, Stub(u)) == branch


def test_pauli_branch_conventions():
    # X flips the cell, Z phases |1>, Y does both with the usual phases;
    # the engine and the reference step agree on each.
    amp = 1.0 / math.sqrt(2.0)
    cases = ((ket("1"), ["1"], "Y", {key("0", 0, "0"): -1j}),
             (ket("0"), ["0"], "Y", {key("0", 0, "1"): 1j}),
             (ket("0"), ["0"], "X", {key("0", 0, "1"): 1.0}),
             ((ket("0") + ket("1")).normalized(), ["0", "1"], "Z",
              {key("0", 0, "0"): amp, key("0", 0, "1"): -amp}))
    for message, texts, branch, joint in cases:
        book = CodeBook.from_texts(texts)
        assert evolved(message, book, 1, branch) == pytest.approx(joint)
        step = _channel_step(_channel_start(message, 1), frozenset(book.words), 1, branch)
        assert step == pytest.approx(joint)


def test_noiseless_run_is_faithful_and_disentangled():
    rep = run(PLUS, BOOK, 2, NONE, 3)
    assert rep.mean_fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.fidelity_std_err == 0.0
    assert rep.disentangled
    assert rep.per_step_error_counts == (0, 0)
    with pytest.raises(ValidationError):
        run(PLUS, BOOK, 2, NONE, 0)


def test_deterministic_flip_on_the_second_step():
    noise = NoiseModel("bitflip", 0.0, per_step=(0.0, 1.0), seed=5)
    rep = run(PLUS, BOOK, 2, noise, 4)
    assert rep.mean_fidelity == pytest.approx(0.25, abs=1e-9)
    assert rep.fidelity_std_err == 0.0  # every trajectory is the same
    assert rep.per_step_error_counts == (0, 4)


def test_noise_after_completion_never_reaches_bob():
    noise = NoiseModel("bitflip", 0.5, per_step=(0.0, 0.5, 0.5, 0.5), seed=1)
    rep = run(ket("0"), BOOK, 4, noise, 200)
    assert rep.mean_fidelity == 1.0
    assert rep.per_step_error_counts[0] == 0
    assert sum(rep.per_step_error_counts[1:]) > 0  # noise fired, harmlessly


def test_empty_word_messages_survive_any_noise():
    lam = CodeBook.from_texts([""])
    noise = NoiseModel("bitflip", 1.0, seed=3)
    assert run(ket(""), lam, 2, noise, 5).mean_fidelity == 1.0


def test_runs_reproduce_from_the_seed():
    noise = NoiseModel("depolarizing", 0.35, seed=42)
    a = run(PLUS, BOOK, 2, noise, 60)
    b = run(PLUS, BOOK, 2, noise, 60)
    assert a.mean_fidelity == b.mean_fidelity
    assert a.per_step_error_counts == b.per_step_error_counts
    c = run(PLUS, BOOK, 2, NoiseModel("depolarizing", 0.35, seed=43), 60)
    assert (a.mean_fidelity, a.per_step_error_counts) != (c.mean_fidelity, c.per_step_error_counts)


def test_linear_schedule_runs_end_to_end():
    noise = NoiseModel("bitflip", 0.2, "linear", seed=8)
    rep = run(PLUS, BOOK, 2, noise, 50)
    assert 0.0 <= rep.mean_fidelity <= 1.0
    assert len(rep.per_step_error_counts) == 2


def test_compare_codes_validation():
    with pytest.raises(ValidationError):
        compare_codes((0.5, 0.5), BOOK, FIXED, NONE, 10)  # three words each
    with pytest.raises(ValidationError):
        compare_codes((0.6, 0.6), CodeBook.from_texts(["0", "1"]),
                      CodeBook.from_texts(["0", "1"]), NONE, 10)
    with pytest.raises(ValidationError):
        compare_codes((1 / 3.0,) * 3, BOOK, FIXED, NONE, 0)


def test_compare_codes_without_noise_always_succeeds():
    rep = compare_codes((1 / 3.0,) * 3, BOOK, FIXED, NONE, 20)
    for res in rep.results:
        assert res.success_rate == 1.0
        assert res.analytic == 1.0
        assert res.std_err == 0.0


def test_compare_codes_under_bit_flips_matches_the_closed_form():
    noise = NoiseModel("bitflip", 0.2, seed=11)
    rep = compare_codes((1 / 3.0,) * 3, BOOK, FIXED, noise, 2000)
    short, fixed = rep.results
    assert short.analytic == pytest.approx((0.8 + 0.64 + 0.64) / 3.0, abs=1e-12)
    assert fixed.analytic == pytest.approx(0.64, abs=1e-12)
    for res in rep.results:
        assert abs(res.success_rate - res.analytic) <= 3.0 * res.std_err + 1e-12
    assert short.success_rate > fixed.success_rate


def test_phase_noise_cannot_break_classical_words():
    noise = NoiseModel("phaseflip", 1.0, seed=2)
    rep = compare_codes((1 / 3.0,) * 3, BOOK, FIXED, noise, 100)
    assert [res.success_rate for res in rep.results] == [1.0, 1.0]
    assert [res.analytic for res in rep.results] == [None, None]


# --- the batched noise streams against numpy's generators --------------------

SEED_BASES = (1000, 2**32, 2**64, 2**100)
BOUNDARY_SEEDS = (0, 2**32 - 1, 2**32, 2**40, 2**64 + 3, 2**96 + 5, 2**100)
# trial offsets near 0, across 2**32 and across 2**64
FIRST_TRIALS = st.one_of(st.integers(0, 40), st.integers(2**32 - 12, 2**32 + 2),
                         st.integers(2**64 - 12, 2**64))


@given(st.sampled_from(BOUNDARY_SEEDS), st.integers(0, 1), FIRST_TRIALS,
       st.integers(1, 12), st.integers(0, 24))
def test_noise_streams_equal_default_rng(seed, b, t0, trials, n):
    # run's trial t draws from default_rng(seed + t), compare_codes' trial t
    # of book b from default_rng((seed, b, t)); both bit for bit.
    ts = range(t0, t0 + trials)
    got = channel._uniforms((), seed + t0, seed + t0 + trials, n)
    want = [np.random.default_rng(seed + t).random(n) for t in ts]
    assert np.array_equal(got, np.reshape(want, (trials, n)))
    got = channel._uniforms((seed, b), t0, t0 + trials, n)
    want = [np.random.default_rng((seed, b, t)).random(n) for t in ts]
    assert np.array_equal(got, np.reshape(want, (trials, n)))


def test_noise_streams_cross_word_boundaries_in_blocks():
    # 700 trials of 24 draws span two blocks of CHUNK_ROWS draws, and the
    # trial index crosses 2**32 inside the second.
    t0 = 2**32 - 600
    got = channel._uniforms((5, 1), t0, t0 + 700, 24)
    want = [np.random.default_rng((5, 1, t)).random(24) for t in range(t0, t0 + 700)]
    assert np.array_equal(got, np.array(want))


# --- the batched engine against the dict-of-configurations reference ---------

def _rounded(report):
    return round_floats(dataclasses.asdict(report))


def _noises(rng, steps):
    """Every noise kind under both schedules and under an explicit schedule.

    Seeds lie just below 1000, 2**32, 2**64 or 2**100, so run's seed + t
    can cross into one more entropy word within a run.
    """
    seed = SEED_BASES[int(rng.integers(len(SEED_BASES)))] - int(rng.integers(1, 13))
    out = [NoiseModel("none", seed=seed)]
    for kind in ("bitflip", "phaseflip", "depolarizing"):
        out.append(NoiseModel(kind, float(rng.uniform(0.0, 1.0)), seed=seed))
        out.append(NoiseModel(kind, float(rng.uniform(0.0, 0.4)), "linear", seed=seed))
        out.append(NoiseModel(kind, 0.0, per_step=tuple(rng.uniform(0.0, 1.0, steps)),
                              seed=seed))
    return out


def _superposed(rng, words):
    """A normalized message over a random nonempty subset of the words."""
    k = int(rng.integers(1, len(words) + 1))
    picked = [words[i] for i in rng.choice(len(words), size=k, replace=False)]
    amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return QubitString(dict(zip(picked, amps))).normalized()


@given(st.integers(0, 2**30), st.booleans())
def test_run_matches_the_reference_engine(seed, full):
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 10)), max_len=5, full=full)
    cases = [(CodeBook(tuple(words)), _superposed(rng, words)),
             (CodeBook.from_texts([""]), ket(""))]
    for book, message in cases:
        l_max = book.max_length + int(rng.integers(0, 3))  # may exceed the longest word
        trials = int(rng.integers(1, 12))
        for noise in _noises(rng, l_max):
            assert (_rounded(run(message, book, l_max, noise, trials))
                    == _rounded(run_bruteforce(message, book, l_max, noise, trials)))


@given(st.integers(0, 2**30))
def test_compare_codes_matches_the_reference_engine(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    book_a = CodeBook(tuple(random_prefix_code(rng, n, max_len=6)))
    book_b = CodeBook(tuple(random_prefix_code(rng, n, max_len=6, full=False)))
    races = [(random_dist(rng, n), book_a, book_b),
             ((1.0,), CodeBook.from_texts([""]), CodeBook.from_texts(["1"]))]
    for probs, a, b in races:
        trials = int(rng.integers(1, 30))
        steps = max(a.max_length, b.max_length)
        for noise in _noises(rng, steps):
            assert (_rounded(compare_codes(probs, a, b, noise, trials))
                    == _rounded(compare_codes_bruteforce(probs, a, b, noise, trials)))
    # Flip-heavy races, where many trials fail.
    kinds = ("bitflip", "depolarizing")
    for probs, a, b in races:
        trials = int(rng.integers(100, 301))
        noise = NoiseModel(kinds[int(rng.integers(2))], float(rng.uniform(0.3, 1.0)),
                           seed=int(rng.integers(2**31)))
        assert (_rounded(compare_codes(probs, a, b, noise, trials))
                == _rounded(compare_codes_bruteforce(probs, a, b, noise, trials)))
    # Every trial sends word j of book_a, of length L >= 1, under a schedule
    # that spares it always (no flip up to step L, certain flips after it)
    # or breaks it always (a certain bit flip at step L).
    j = int(rng.integers(n))
    length = book_a.words[j].length
    steps = max(book_a.max_length, book_b.max_length)
    if rng.integers(2):
        kind, rate = kinds[int(rng.integers(2))], 1.0
        per_step = (0.0,) * length + (1.0,) * (steps - length)
    else:
        kind, rate = "bitflip", 0.0
        per_step = rng.uniform(0.0, 1.0, steps)
        per_step[length - 1] = 1.0
    noise = NoiseModel(kind, 0.0, per_step=tuple(per_step), seed=int(rng.integers(2**31)))
    probs = tuple(float(k == j) for k in range(n))
    trials = int(rng.integers(100, 301))
    report = compare_codes(probs, book_a, book_b, noise, trials)
    assert report.results[0].success_rate == rate
    assert (_rounded(report)
            == _rounded(compare_codes_bruteforce(probs, book_a, book_b, noise, trials)))


def test_trial_chunks_do_not_change_the_reports(monkeypatch):
    noise = NoiseModel("depolarizing", 0.4, seed=9)
    book = CodeBook.from_texts(["0", "10", "110", "111"])
    message = (ket("0") + 1j * ket("110") - ket("111")).normalized()
    expected = (_rounded(run(message, book, 4, noise, 40)),
                _rounded(compare_codes((0.1, 0.2, 0.3, 0.4), book, book, noise, 40)))
    monkeypatch.setattr(channel, "CHUNK_ROWS", 7)  # several trials, then one per chunk
    assert (_rounded(run(message, book, 4, noise, 40)),
            _rounded(compare_codes((0.1, 0.2, 0.3, 0.4), book, book, noise, 40))) == expected
    assert expected == (_rounded(run_bruteforce(message, book, 4, noise, 40)),
                        _rounded(compare_codes_bruteforce((0.1, 0.2, 0.3, 0.4), book, book,
                                                          noise, 40)))


def test_reference_engine_guards():
    with pytest.raises(ValidationError):
        run_bruteforce(PLUS, BOOK, 17, NONE, 1)  # register above the cap
    with pytest.raises(ValidationError):
        run_bruteforce(PLUS, BOOK, 2, NONE, 0)
    with pytest.raises(ValidationError):
        compare_codes_bruteforce((0.5, 0.5), BOOK, FIXED, NONE, 10)


def test_compare_codes_scores_without_stepping_the_channel(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(channel, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("init_channel", "_evolve"):
        monkeypatch.setattr(channel, name, counting(name))
    for noise in (NONE, NoiseModel("bitflip", 0.1), NoiseModel("depolarizing", 0.5, seed=4),
                  NoiseModel("phaseflip", 0.3)):
        compare_codes((0.5, 0.25, 0.25), BOOK, FIXED, noise, 500)
    assert calls == []
    # a register of 25 qubits is still refused, on either side of the race
    pair, long = (CodeBook.from_texts(["0", "1" + "0" * k]) for k in (0, 24))
    for a, b in ((long, pair), (pair, long)):
        for noise in (NONE, NoiseModel("bitflip", 0.1)):
            with pytest.raises(ValidationError, match=r"^l_max must lie in \[0, 24\]$"):
                compare_codes((0.5, 0.5), a, b, noise, 3)
    widest = CodeBook.from_texts(["0", "1" + "0" * 23])
    assert compare_codes((0.5, 0.5), widest, pair, NONE, 3).results[0].success_rate == 1.0
    assert calls == []


def test_compare_codes_rejects_non_finite_probabilities():
    for probs in ((math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0)):
        with pytest.raises(ValidationError):
            compare_codes(probs, BOOK, FIXED, NONE, 10)

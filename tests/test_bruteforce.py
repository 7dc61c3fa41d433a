"""The exhaustive oracles: independent recomputation of entropy, rate and prefix-freedom."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprefix import (BitString, Ensemble, QubitString, ValidationError,
                     hmon_bruteforce, is_prefix_free, ket, monotone_entropy,
                     optimal_rate, prefix_free_bruteforce,
                     projections_bruteforce, rate_bruteforce,
                     sequential_projections)

from helpers import (random_dist, random_ensemble, random_prefix_code,
                     rotated_basis)

seeds = st.integers(0, 2**30)


def test_hmon_oracle_hand_values():
    res = hmon_bruteforce((1 / 3.0,) * 3, 6)
    assert res.value == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert res.witness == (1, 2, 2)
    assert res.search_space_size == math.comb(7 + 3 - 1, 3)

    res = hmon_bruteforce((0.4, 0.2, 0.2, 0.2), 8)
    assert res.value == 2.0
    assert res.witness == (1, 2, 3, 3)  # lexicographically first of the tie


def test_hmon_oracle_guards():
    with pytest.raises(ValidationError):
        hmon_bruteforce((), 4)
    with pytest.raises(ValidationError):
        hmon_bruteforce((0.5, 0.5, 0.0), 4)
    with pytest.raises(ValidationError):
        hmon_bruteforce((1.0 / 9,) * 9, 4)  # too many weights
    with pytest.raises(ValidationError):
        hmon_bruteforce((0.5, 0.5), 17)  # cap above the supported range
    with pytest.raises(ValidationError):
        hmon_bruteforce((0.25,) * 4, 1)  # no feasible tuple that short


@given(seeds)
def test_hmon_oracle_agrees_with_solver(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    p = random_dist(rng, n)
    res = hmon_bruteforce(p, 2 * n)
    value, asg = monotone_entropy(p)
    assert res.value == value
    assert res.witness == asg.lengths


def test_rate_oracle_on_orthogonal_triple():
    ens = Ensemble.from_states((1 / 3.0,) * 3, list(np.eye(3)))
    res = rate_bruteforce(ens)
    assert res.value == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert res.search_space_size == 6
    order, probs, lengths = res.witness
    assert sorted(order) == [0, 1, 2]
    assert probs == (1 / 3.0,) * 3
    assert lengths == (1, 2, 2)


def test_rate_oracle_handles_dependent_states():
    e0, e1 = np.eye(2)
    plus = (e0 + e1) / math.sqrt(2.0)
    ens = Ensemble.from_states((0.4, 0.3, 0.3), [e0, plus, e1])
    res = rate_bruteforce(ens)
    # rank saturates after two picks, so the third state always merges
    assert len(res.witness[1]) == 2
    rate, _, _ = optimal_rate(ens)
    assert res.value == rate


def test_rate_oracle_guards():
    with pytest.raises(ValidationError):
        rate_bruteforce(Ensemble.from_states((1.0 / 9,) * 9, list(np.eye(9))))


@given(seeds)
@settings(max_examples=25)
def test_rate_oracle_agrees_with_codec(seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, int(rng.integers(1, 6)), int(rng.integers(2, 5)),
                          degenerate=bool(rng.integers(2)))
    rate, _, _ = optimal_rate(ens)
    assert rate_bruteforce(ens).value == rate


@given(seeds)
@settings(max_examples=25)
def test_projection_sweep_agrees_with_codec(seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, int(rng.integers(1, 6)), int(rng.integers(2, 4)),
                          degenerate=bool(rng.integers(2)))
    mine = {tuple(round(x, 12) for x in proj.probs)
            for proj in sequential_projections(ens)}
    assert projections_bruteforce(ens) == mine


def _prefix_test_set(kind, rng):
    """A set of qubit strings of the given kind for the certificate cross-check."""
    if kind == "mixed":
        # mixed lengths, the empty word, and zero vectors (no terms drawn)
        vectors = []
        for _ in range(int(rng.integers(1, 6))):
            terms = {}
            for _ in range(int(rng.integers(0, 4))):
                l = int(rng.integers(0, 6))
                terms[BitString(l, int(rng.integers(1 << l)))] = complex(
                    rng.normal(), rng.normal())
            vectors.append(QubitString(terms))
        return vectors
    words = random_prefix_code(rng, int(rng.integers(2, 8)), max_len=6)
    if kind == "classical":
        extras = [QubitString({}), ket("")][:int(rng.integers(3))]
        vectors = [ket(w) for w in words] + extras
        rng.shuffle(vectors)
        return vectors
    vectors = rotated_basis(rng, words)
    if kind == "spoiled":
        planted = words[int(rng.integers(len(words)))].concat(
            BitString(1, int(rng.integers(2))))
        vectors.insert(int(rng.integers(len(vectors) + 1)), ket(planted))
    return vectors


@given(st.sampled_from(["mixed", "classical", "rotated", "spoiled"]), seeds)
def test_prefix_certificate_agrees_with_suffix_scan(kind, seed):
    vectors = _prefix_test_set(kind, np.random.default_rng(seed))
    flag, witness = is_prefix_free(vectors)
    assert (flag, witness) == prefix_free_bruteforce(vectors)
    if kind == "rotated":
        assert flag
    if kind == "spoiled":
        assert not flag


def test_prefix_scan_hand_cases_and_guard():
    assert prefix_free_bruteforce([]) == (True, None)
    assert prefix_free_bruteforce([QubitString({})]) == (True, None)
    ok, w = prefix_free_bruteforce([ket("1"), ket(""), ket("0")])
    assert not ok and (w.phi, w.psi, w.suffix.text) == (0, 1, "1")
    with pytest.raises(ValidationError):
        prefix_free_bruteforce([ket("0" * 13)])

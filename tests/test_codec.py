"""Monotone entropy, sequential projections, optimal rate, code round trips."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_dist, random_ensemble, random_unit
from qprefix import (Ensemble, LengthAssignment, SequentialProjection,
                     ValidationError, avg_length, base_length, build_code,
                     canonical_codewords, decode, encode, hmon_bruteforce,
                     ket, monotone_entropy, optimal_rate,
                     sequential_projections, shannon_entropy, tensor_ensemble)

seeds = st.integers(0, 2**30)

E3 = Ensemble.from_states((1 / 3.0,) * 3, list(np.eye(3)))
E4 = Ensemble.from_states(
    (0.4, 0.3, 0.2, 0.1),
    [np.array([1.0, 0.0, 0.0]),
     np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
     np.array([0.0, 1.0, 0.0]),
     np.array([0.0, 0.0, 1.0])])


def test_ensemble_validation():
    with pytest.raises(ValidationError):
        Ensemble.from_states((0.5, 0.5), [np.eye(2)[0], np.eye(2)[0] * 2.0])
    with pytest.raises(ValidationError):
        Ensemble.from_states((0.5, 0.6), list(np.eye(2)))
    with pytest.raises(ValidationError):
        Ensemble.from_states((1.1, -0.1), list(np.eye(2)))
    with pytest.raises(ValidationError):
        Ensemble.from_states((1.0,), [np.array([1.0, 0.0])], dimension=3)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("func, args", [
    (Ensemble.from_states, ([1.0], [[_NAN, 0.0]])),
    (Ensemble.from_states, ([1.0], [[_INF, 0.0]])),
    (Ensemble.from_states, ([0.5, _NAN], np.eye(2))),
    (Ensemble.from_states, ([0.5, _INF], np.eye(2))),
    (shannon_entropy, ([0.5, _NAN],)),
    (shannon_entropy, ([_INF],)),
    (monotone_entropy, ([_NAN],)),
    (monotone_entropy, ([0.5, _INF],)),
], ids=["ensemble-nan-amp", "ensemble-inf-amp", "ensemble-nan-p", "ensemble-inf-p",
        "shannon-nan", "shannon-inf", "monotone-nan", "monotone-inf"])
def test_non_finite_inputs_are_rejected(func, args):
    # NaN passes comparisons such as abs(x - 1) > EPS and x <= 0
    with pytest.raises(ValidationError):
        func(*args)


def test_length_assignment_validation():
    LengthAssignment((1, 2, 2), 1.0)
    with pytest.raises(ValidationError):
        LengthAssignment((2, 1, 2), 1.0)  # not nondecreasing
    with pytest.raises(ValidationError):
        LengthAssignment((1, 1, 1), 1.0)  # Kraft sum 3/2
    with pytest.raises(ValidationError):
        LengthAssignment((-1, 2), 1.0)


def test_sequential_projection_validation():
    SequentialProjection((0.4, 0.6), ((0,), (1, 2)), (0, 1))
    with pytest.raises(ValidationError):
        SequentialProjection((0.4, 0.6), ((0,),), (0,))
    with pytest.raises(ValidationError):
        SequentialProjection((0.4, 0.4), ((0,), (1,)), (0, 1))
    with pytest.raises(ValidationError):
        SequentialProjection((0.4, 0.6), ((0,), (1,)), (0, 2))


def test_shannon_entropy_values():
    assert shannon_entropy((0.5, 0.5)) == 1.0
    assert shannon_entropy((1 / 3.0,) * 3) == pytest.approx(math.log2(3.0), abs=1e-12)
    assert shannon_entropy((1.0,)) == 0.0
    with pytest.raises(ValidationError):
        shannon_entropy((0.7, 0.7))


def test_monotone_entropy_hand_values():
    value, asg = monotone_entropy((1 / 3.0,) * 3)
    assert value == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert asg.lengths == (1, 2, 2)

    value, asg = monotone_entropy((1 / 9.0,) * 9)
    assert value == pytest.approx(29.0 / 9.0, abs=1e-12)
    assert asg.lengths == (3, 3, 3, 3, 3, 3, 3, 4, 4)

    assert monotone_entropy((1.0,))[0] == 0.0
    assert monotone_entropy((0.5, 0.5))[1].lengths == (1, 1)


def test_monotone_entropy_is_not_permutation_invariant():
    assert monotone_entropy((0.5, 0.4, 0.1))[0] == pytest.approx(1.5, abs=1e-12)
    assert monotone_entropy((0.1, 0.4, 0.5))[0] == pytest.approx(1.9, abs=1e-12)


def test_monotone_entropy_rejects_bad_input():
    with pytest.raises(ValidationError):
        monotone_entropy(())
    with pytest.raises(ValidationError):
        monotone_entropy((0.5, 0.0, 0.5))


def test_monotone_entropy_returns_the_huffman_profile_on_dyadic_weights():
    value, asg = monotone_entropy((0.5, 0.25, 0.125, 0.125))
    assert value == pytest.approx(1.75, abs=1e-12)
    assert asg.lengths == (1, 2, 3, 3)


def test_monotone_entropy_breaks_ties_lexicographically():
    # (1, 2, 3, 3) and (2, 2, 2, 2) both cost exactly 2 here
    value, asg = monotone_entropy((0.4, 0.2, 0.2, 0.2))
    assert value == 2.0
    assert asg.lengths == (1, 2, 3, 3)


@given(seeds)
def test_monotone_entropy_against_wide_cap_oracle(seed):
    # the solver's internal cap max(n-1, ceil(log2 n)) must not cost optimality
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    p = random_dist(rng, n)
    value, asg = monotone_entropy(p)
    res = hmon_bruteforce(p, 2 * n)
    assert value == res.value
    assert asg.lengths == res.witness


def test_monotone_entropy_cap_validated_at_larger_sizes():
    rng = np.random.default_rng(77)
    for n in (7, 8):
        for _ in range(2):
            p = random_dist(rng, n)
            value, asg = monotone_entropy(p)
            res = hmon_bruteforce(p, 16)
            assert value == res.value
            assert asg.lengths == res.witness


@given(seeds)
def test_monotone_entropy_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    p = random_dist(rng, n)
    value, _ = monotone_entropy(p)
    assert value >= shannon_entropy(p) - 1e-9
    assert value <= math.ceil(math.log2(n)) + 1e-9 if n > 1 else value == 0.0
    sorted_value, _ = monotone_entropy(tuple(sorted(p, reverse=True)))
    assert shannon_entropy(p) - 1e-9 <= sorted_value <= shannon_entropy(p) + 1.0 + 1e-9


def test_projections_of_orthogonal_states_deduplicate_to_one():
    projs = sequential_projections(E3)
    assert len(projs) == 1
    assert projs[0].probs == (1 / 3.0,) * 3
    assert projs[0].groups == ((0,), (1,), (2,))


def test_projections_of_the_four_state_ensemble():
    projs = sequential_projections(E4)
    probs = sorted(p.probs for p in projs)
    assert len(probs) == 9
    assert (0.4, 0.1, 0.5) in probs
    assert (0.4, 0.5, 0.1) in probs
    assert (0.1, 0.2, 0.7) in probs
    for proj in projs:
        assert math.fsum(proj.probs) == pytest.approx(1.0, abs=1e-12)
        assert sorted(i for g in proj.groups for i in g) == [0, 1, 2, 3]


def test_projection_groups_cover_dependents():
    # repeated vector joins the group of its first occurrence
    v = np.array([1.0, 0.0])
    ens = Ensemble.from_states((0.3, 0.7), [v, v])
    projs = sequential_projections(ens)
    assert len(projs) == 1
    assert projs[0].probs == (1.0,)
    assert projs[0].groups == ((0, 1),)


def test_optimal_rate_single_source():
    rate, proj, asg = optimal_rate(E3)
    assert rate == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert asg.lengths == (1, 2, 2)
    assert proj.probs == (1 / 3.0,) * 3


def test_optimal_rate_breaks_ties_toward_lexicographic_projection():
    rate, proj, asg = optimal_rate(E4)
    assert rate == pytest.approx(1.6, abs=1e-12)
    assert proj.probs == (0.4, 0.1, 0.5)
    assert proj.groups == ((0,), (3,), (1, 2))
    assert asg.lengths == (1, 2, 2)


def test_tensor_ensemble_rate_is_subadditive_here():
    prod = tensor_ensemble(E3, E3)
    assert prod.n == 9 and prod.dimension == 9
    rate2, _, asg = optimal_rate(prod)
    assert rate2 == pytest.approx(29.0 / 9.0, abs=1e-12)
    assert asg.lengths == (3, 3, 3, 3, 3, 3, 3, 4, 4)
    assert rate2 < 2 * optimal_rate(E3)[0]


def test_canonical_codewords_hand_values():
    assert [w.text for w in canonical_codewords((1, 2, 2))] == ["0", "10", "11"]
    assert [w.text for w in canonical_codewords((2, 2, 2, 2))] == ["00", "01", "10", "11"]
    assert [w.text for w in canonical_codewords((3,) * 7 + (4, 4))] == [
        "000", "001", "010", "011", "100", "101", "110", "1110", "1111"]
    assert [w.text for w in canonical_codewords((0,))] == [""]
    assert [w.text for w in canonical_codewords((1, 3, 3, 3))] == ["0", "100", "101", "110"]


def test_canonical_codewords_validate_the_profile():
    with pytest.raises(ValidationError):
        canonical_codewords((1, 1, 1))
    with pytest.raises(ValidationError):
        canonical_codewords((2, 1))


def test_build_code_exposes_its_pieces():
    code = build_code(E3)
    assert [w.text for w in code.codewords] == ["0", "10", "11"]
    assert code.lengths == (1, 2, 2)
    assert code.dimension == 3
    assert code.rate == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert np.allclose(code.isometry @ code.basis_in.T.conj(), np.eye(3), atol=1e-12)


def test_encode_decode_round_trip_on_basis_states():
    code = build_code(E4)
    for p, v in zip(E4.probs, E4.vectors):
        word = encode(code, v)
        assert word.is_normalized()
        back = decode(code, word)
        fid = abs(np.vdot(np.asarray(v), back)) ** 2
        assert fid >= 1.0 - 1e-12


@given(seeds)
def test_encode_decode_round_trip_on_random_span_vectors(seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
    code = build_code(ens)
    span_dim = code.isometry.shape[0]
    coeffs = random_unit(rng, span_dim)
    v = coeffs @ code.basis_in
    word = encode(code, v)
    assert base_length(word) <= max(code.lengths)
    back = decode(code, word)
    assert abs(np.vdot(v, back)) ** 2 >= 1.0 - 1e-9


def test_encode_rejects_vectors_outside_the_span():
    two = Ensemble.from_states((0.5, 0.5), [np.eye(3)[0], np.eye(3)[1]])
    code = build_code(two)
    with pytest.raises(ValidationError):
        encode(code, np.array([0.0, 0.0, 1.0]))


def test_decode_rejects_strings_off_the_code_words():
    code = build_code(E3)
    with pytest.raises(ValidationError):
        decode(code, ket("000"))
    mixed = (ket("0") + ket("000")).normalized()
    with pytest.raises(ValidationError):
        decode(code, mixed)


def test_zero_length_code_for_a_single_ray():
    v = np.array([1.0, 0.0])
    ens = Ensemble.from_states((0.3, 0.7), [v, v])
    code = build_code(ens)
    assert code.lengths == (0,)
    word = encode(code, v)
    assert base_length(word) == 0
    assert abs(np.vdot(v, decode(code, word))) ** 2 >= 1.0 - 1e-12


@given(seeds)
def test_rate_never_exceeds_shannon_plus_one(seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                          degenerate=bool(rng.integers(2)))
    rate, _, _ = optimal_rate(ens)
    assert rate <= shannon_entropy(ens.probs) + 1.0 + 1e-9


def test_projection_enumeration_refuses_oversized_ensembles():
    n = 21
    ens = Ensemble.from_states((1.0 / n,) * n, list(np.eye(n)))
    with pytest.raises(ValidationError, match="above the state cap of 20"):
        sequential_projections(ens)

"""Bit strings, superpositions, lengths, inner products, concatenation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (CHI, PHI, PSI, random_prefix_code, random_qstring,
                     rotated_basis)
from qprefix import (BitString, PrefixBasis, QubitString, ValidationError,
                     avg_length, base_length, concat, inner, ket, kraft_chain,
                     zero_extended)

bits_text = st.text(alphabet="01", max_size=10)


def test_bitstring_text_round_trip():
    for text in ("", "0", "1", "0010", "11111"):
        s = BitString.from_text(text)
        assert s.text == text
        assert len(s) == len(text)


@given(bits_text)
def test_bitstring_text_round_trip_random(text):
    assert BitString.from_text(text).text == text


def test_bitstring_rejects_garbage():
    with pytest.raises(ValidationError):
        BitString.from_text("012")
    for text in ("1_0", " 1", "1 ", "+1", "-1", "0b1", "\uff11", "\u0661", None, 1):
        with pytest.raises(ValidationError):  # int(text, 2) takes several
            BitString.from_text(text)
    with pytest.raises(ValidationError):
        BitString(-1, 0)
    with pytest.raises(ValidationError):
        BitString(2, 4)  # needs three bits


def test_bitstring_bit_indexing_is_left_to_right():
    s = BitString.from_text("0110")
    assert [s.bit(i) for i in range(4)] == [0, 1, 1, 0]
    assert s.with_bit(0, 1).text == "1110"
    assert s.with_bit(3, 1).text == "0111"
    with pytest.raises(ValidationError):
        s.bit(4)


@given(bits_text, bits_text)
def test_bitstring_concat_matches_text(a, b):
    sa, sb = BitString.from_text(a), BitString.from_text(b)
    assert sa.concat(sb).text == a + b


@given(bits_text, bits_text)
def test_bitstring_prefix_relation_matches_text(a, b):
    sa, sb = BitString.from_text(a), BitString.from_text(b)
    assert sa.is_prefix_of(sb) == b.startswith(a)


def test_bitstring_ordering_and_hashing():
    strings = [BitString.from_text(t) for t in ("1", "0", "10", "", "01")]
    assert [s.text for s in sorted(strings)] == ["", "0", "1", "01", "10"]
    assert len({BitString.from_text("01"), BitString(2, 1)}) == 1


def test_qubitstring_accumulates_and_prunes():
    psi = QubitString({"0": 0.5})
    phi = psi + QubitString({BitString.from_text("0"): 0.5, "1": 1e-13})
    assert phi.terms[BitString.from_text("0")] == 1.0
    assert BitString.from_text("1") not in phi.terms  # below pruning cut
    assert (psi - psi).terms == {}


def test_qubitstring_rejects_non_finite_amplitudes():
    with pytest.raises(ValidationError):
        QubitString({"0": float("nan")})


def test_norm_and_normalized():
    psi = QubitString({"0": 3.0, "11": 4.0})
    assert psi.norm() == 5.0
    assert psi.normalized().is_normalized()
    with pytest.raises(ValidationError):
        QubitString({}).normalized()


def test_algebra_is_linear():
    psi, phi = ket("0"), ket("10")
    combo = 2.0 * psi - phi * 0.5
    assert combo.terms[BitString.from_text("0")] == 2.0
    assert combo.terms[BitString.from_text("10")] == -0.5
    assert (-combo).terms[BitString.from_text("0")] == -2.0
    assert combo.distance(combo) == 0.0


def test_base_length_and_errors():
    assert base_length(ket("")) == 0
    assert base_length(PSI) == 2
    assert base_length(PHI) == 3
    with pytest.raises(ValidationError):
        base_length(QubitString({}))


def test_avg_length_requires_normalization():
    assert avg_length(PSI) == pytest.approx(1.5, abs=1e-12)
    assert avg_length(PHI) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ValidationError):
        avg_length(ket("0", 2.0))


def test_inner_basics():
    assert inner(ket("0"), ket("0")) == 1.0
    assert inner(ket("0"), ket("1")) == 0.0
    assert inner(ket("0"), ket("00")) == 0.0  # different lengths never overlap
    # antilinear in the first slot
    assert inner(ket("0", 2j), ket("0", 3.0)) == -6j


@given(st.integers(0, 2**30), st.integers(0, 2**30))
def test_inner_conjugate_symmetry(seed_a, seed_b):
    psi = random_qstring(np.random.default_rng(seed_a))
    phi = random_qstring(np.random.default_rng(seed_b))
    assert inner(psi, phi) == pytest.approx(inner(phi, psi).conjugate(), abs=1e-12)


def test_zero_extended_pads_support():
    padded = zero_extended(PSI, 4)
    assert sorted(s.text for s in padded.support()) == ["0100", "1000"]
    assert padded.is_normalized()
    with pytest.raises(ValidationError):
        zero_extended(PHI, 2)


@given(st.integers(0, 2**30))
def test_zero_extension_preserves_inner_products_on_code_spans(seed):
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 6)), max_len=5)
    l = max(w.length for w in words)
    psi, phi = (QubitString({w: complex(rng.normal(), rng.normal())
                             for w in words}).normalized() for _ in range(2))
    before = inner(psi, phi)
    after = inner(zero_extended(psi, l), zero_extended(phi, l))
    assert after == pytest.approx(before, abs=1e-12)


def test_zero_extension_merges_zero_extensions_of_each_other():
    # |0> and |00> pad to the same register string, so the padded state
    # picks up interference; prefix-free supports are what rules this out.
    psi = (ket("0") + ket("00")).normalized()
    assert zero_extended(psi, 2).norm_sq() == pytest.approx(2.0, abs=1e-12)


def test_concat_identity_and_classical_case():
    assert concat(ket(""), PSI).distance(PSI) == 0.0
    assert concat(PSI, ket("")).distance(PSI) == 0.0
    assert concat(ket("01"), ket("10")).terms == ket("0110").terms


def test_concat_is_bilinear():
    lhs = concat(PSI + PHI, ket("1"))
    rhs = concat(PSI, ket("1")) + concat(PHI, ket("1"))
    assert lhs.distance(rhs) <= 1e-12


@given(st.integers(0, 2**30))
def test_concat_associative(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_qstring(rng, max_len=3, max_terms=3) for _ in range(3))
    assert concat(concat(x, y), z).distance(concat(x, concat(y, z))) <= 1e-10


@given(st.integers(0, 2**30))
def test_concat_adds_base_lengths(seed):
    rng = np.random.default_rng(seed)
    x, y = random_qstring(rng), random_qstring(rng)
    assert base_length(concat(x, y)) == base_length(x) + base_length(y)


def test_concat_interference_example():
    """Colliding product strings interfere, so average length is not additive."""
    prod = concat(CHI, PHI)
    a = 1.0 / (2.0 * math.sqrt(2.0))
    expected = {
        "110": a, "0110": a, "01010": -2.0 * a, "10010": -a, "010010": a,
    }
    assert {s.text for s in prod.support()} == set(expected)
    for text, amp in expected.items():
        assert prod.terms[BitString.from_text(text)] == pytest.approx(amp, abs=1e-12)
    # |1010> is produced twice with opposite signs and cancels entirely
    assert BitString.from_text("1010") not in prod.terms
    assert avg_length(prod) == pytest.approx(19.0 / 4.0, abs=1e-12)
    assert avg_length(CHI) + avg_length(PHI) == pytest.approx(2.0 + 2.5, abs=1e-12)
    assert base_length(prod) == base_length(CHI) + base_length(PHI)


@given(st.integers(0, 2**30))
def test_concat_of_length_eigenvectors_adds_average_lengths(seed):
    rng = np.random.default_rng(seed)
    l_x, l_y = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    x = QubitString({BitString(l_x, v): complex(rng.normal(), rng.normal())
                     for v in range(1 << l_x)}).normalized()
    y = QubitString({BitString(l_y, v): complex(rng.normal(), rng.normal())
                     for v in range(1 << l_y)}).normalized()
    assert avg_length(concat(x, y)) == pytest.approx(l_x + l_y, abs=1e-9)


@given(st.integers(0, 2**30))
def test_exact_sums_ignore_insertion_order(seed):
    # norm_sq, avg_length and the Kraft trace term use math.fsum, which is
    # correctly rounded, so they need no sorted support
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 24)), max_len=7)
    basis = rotated_basis(rng, words)
    scales = 10.0 ** rng.uniform(-5, 0, size=len(words))
    spread = QubitString({w: a * scales[k]
                          for k, (w, a) in enumerate(basis[0].terms.items())})

    def shuffled(psi):
        items = list(psi.terms.items())
        return QubitString(dict(items[k] for k in rng.permutation(len(items))))

    for v in basis + [spread, spread.normalized()]:
        w = shuffled(v)
        assert w.terms == v.terms
        assert w.norm_sq() == v.norm_sq()
        if v.is_normalized():
            assert avg_length(w) == avg_length(v)
    mixed = PrefixBasis.from_certified([shuffled(v) for v in basis])
    assert kraft_chain(mixed) == kraft_chain(PrefixBasis.from_certified(basis))

"""Prefix-freedom certificates, the Kraft chain and Gram-Schmidt."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (CHI, PHI, PSI, random_prefix_code, random_qstring,
                     rotated_basis)
from qprefix import (BitString, KraftChain, PrefixBasis, QubitString,
                     ValidationError, concat, gram_schmidt, inner,
                     is_orthonormal, is_prefix_free, ket, kraft_chain, prefix,
                     subspace_prefix_free)

seeds = st.integers(0, 2**30)


def test_prefix_violation_reports_a_witness():
    ok, w = is_prefix_free([ket("0"), ket("01")])
    assert not ok
    assert (w.phi, w.psi, w.suffix.text) == (1, 0, "1")


def test_example_subspace_is_prefix_free():
    ok, w = is_prefix_free([PSI, PHI])
    assert ok and w is None
    assert subspace_prefix_free([PSI, PHI])


def test_subspace_certificate_needs_an_orthonormal_basis():
    with pytest.raises(ValidationError):
        subspace_prefix_free([PSI, PSI])
    with pytest.raises(ValidationError):
        subspace_prefix_free([ket("0", 0.5)])


def test_orthonormality_check():
    assert is_orthonormal([PSI, PHI])
    assert not is_orthonormal([PSI, PSI])
    assert not is_orthonormal([ket("0", 0.9)])


@given(seeds)
def test_random_classical_codes_are_prefix_free(seed):
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 9)), max_len=6)
    ok, w = is_prefix_free([ket(s) for s in words])
    assert ok and w is None


@given(seeds)
def test_extending_a_word_breaks_prefix_freedom(seed):
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 7)), max_len=5)
    j = int(rng.integers(len(words)))
    tail = BitString(1, int(rng.integers(2)))
    vectors = [ket(s) for s in words] + [ket(words[j].concat(tail))]
    ok, w = is_prefix_free(vectors)
    assert not ok
    # the witness pair must actually overlap
    lhs = vectors[w.phi]
    rhs = concat(vectors[w.psi], ket(w.suffix))
    assert abs(inner(lhs, rhs)) > 0.5


def test_prefix_basis_classifies_classical_and_superposed():
    classical = PrefixBasis.from_vectors([ket("0"), ket("10"), ket("11")])
    assert classical.is_classical
    assert not PrefixBasis.from_vectors([PSI, PHI]).is_classical
    with pytest.raises(ValidationError):
        PrefixBasis.from_vectors([ket("0"), ket("01")])


def test_kraft_chain_of_the_example_subspace():
    chain = kraft_chain(PrefixBasis.from_vectors([PSI, PHI]))
    assert chain.sum_base == pytest.approx(0.375, abs=1e-12)
    assert chain.sum_avg == pytest.approx(2.0**-1.5 + 2.0**-2.5, abs=1e-12)
    assert chain.trace_term == pytest.approx(0.5625, abs=1e-12)
    assert chain.sum_base < chain.sum_avg < chain.trace_term < 1.0


def test_kraft_chain_rejects_backwards_ordering():
    with pytest.raises(ValidationError):
        KraftChain(0.9, 0.5, 0.5)
    with pytest.raises(ValidationError):
        KraftChain(0.5, 0.5, 1.5)


@given(seeds)
def test_classical_codes_collapse_the_chain(seed):
    rng = np.random.default_rng(seed)
    full = bool(rng.integers(2))
    words = random_prefix_code(rng, int(rng.integers(2, 9)), full=full)
    chain = kraft_chain(PrefixBasis.from_vectors([ket(s) for s in words]))
    assert chain.sum_base == chain.sum_avg == chain.trace_term
    assert chain.trace_term == 1.0 if full else chain.trace_term < 1.0


def test_random_prefix_code_refuses_sizes_it_cannot_build():
    rng = np.random.default_rng(0)
    assert len(random_prefix_code(rng, 8, max_len=3)) == 8
    assert len(random_prefix_code(rng, 7, max_len=3, full=False)) == 7
    # full=False grows n + 1 leaves, one more than depth 3 holds
    with pytest.raises(ValueError, match="2\\*\\*max_len"):
        random_prefix_code(rng, 8, max_len=3, full=False)
    with pytest.raises(ValueError, match="2\\*\\*max_len"):
        random_prefix_code(rng, 9, max_len=3)


@given(seeds)
def test_rotated_bases_keep_the_chain_ordered(seed):
    rng = np.random.default_rng(seed)
    words = random_prefix_code(rng, int(rng.integers(2, 6)), max_len=5)
    basis = PrefixBasis.from_vectors(rotated_basis(rng, words))
    chain = kraft_chain(basis)
    assert chain.sum_base <= chain.sum_avg + 1e-9
    assert chain.sum_avg <= chain.trace_term + 1e-9
    assert chain.trace_term <= 1.0 + 1e-9


def test_gram_schmidt_on_dense_strings():
    # PSI and |1> as coordinates over the strings 1, 01
    support = [BitString.from_text("1"), BitString.from_text("01")]

    def dense(psi):
        return np.array([psi.terms.get(s, 0j) for s in support])

    psi, one = dense(PSI), dense(ket("1"))
    ortho, dep = gram_schmidt([psi, one])
    assert dep == [False, False]
    assert np.linalg.norm(ortho[0] - psi) <= 1e-12
    residual = dense((ket("1") - ket("01")).normalized())
    assert min(np.linalg.norm(ortho[1] - residual),
               np.linalg.norm(ortho[1] + residual)) <= 1e-12
    g = np.array([[np.vdot(u, v) for v in ortho] for u in ortho])
    assert np.abs(g - np.eye(2)).max() <= 1e-9

    _, flags = gram_schmidt([psi, psi])
    assert flags == [False, True]
    _, flags = gram_schmidt([psi, psi * 1j])
    assert flags == [False, True]


@given(seeds)
def test_gram_schmidt_on_arrays(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(d)]
    ortho, dep = gram_schmidt(vecs)
    assert not any(dep)
    g = np.array([[np.vdot(u, v) for v in ortho] for u in ortho])
    assert np.allclose(g, np.eye(d), atol=1e-9)
    # appending a combination of the inputs must flag dependence
    combo = vecs[0] * 0.5 + vecs[-1] * 2.0
    _, dep2 = gram_schmidt(vecs + [combo])
    assert dep2[-1]


def test_concatenation_is_an_isometry_on_the_example_subspace():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        f1 = (complex(c[0, 0]) * PSI + complex(c[0, 1]) * PHI).normalized()
        f2 = (complex(c[1, 0]) * PSI + complex(c[1, 1]) * PHI).normalized()
        g1, g2 = random_qstring(rng), random_qstring(rng)
        got = inner(concat(f1, g1), concat(f2, g2))
        want = inner(f1, f2) * inner(g1, g2)
        assert got == pytest.approx(want, abs=1e-9)


def _defect_reference(vectors):
    """The orthonormality defect as a double loop over qstring.inner."""
    worst = 0.0
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            if j < i:
                continue
            g = inner(u, v)
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(g - target))
    return worst


_words = st.builds(lambda n, bits: BitString(n, bits & ((1 << n) - 1)),
                   st.sampled_from([0, 1, 2, 3, 5, 63, 64, 65, 70]),
                   st.integers(0, 2**70))
_amps = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@given(st.lists(_words, min_size=1, max_size=8, unique=True), st.data())
def test_packed_defect_matches_the_inner_product_loop(pool, data):
    # vectors draw their supports from one small pool, so supports overlap;
    # some are repeated outright and some are normalized
    vectors = []
    for _ in range(data.draw(st.integers(0, 6))):
        if vectors and data.draw(st.booleans()):
            vectors.append(vectors[data.draw(st.integers(0, len(vectors) - 1))])
            continue
        terms = data.draw(st.dictionaries(st.sampled_from(pool), _amps, max_size=len(pool)))
        psi = QubitString(terms)
        if psi.terms and data.draw(st.booleans()):
            psi = psi.normalized()
        vectors.append(psi)
    assert prefix._orthonormality_defect(vectors) == _defect_reference(vectors)
    assert is_orthonormal(vectors) == (_defect_reference(vectors) <= 1e-9)


def test_defect_on_fixed_sets_matches_the_inner_product_loop():
    long = BitString(72, 2**71 + 5)
    rng = np.random.default_rng(3)
    # eight shared strings stored against (length, value) order: the sums
    # then depend on the order in which the terms are added
    words = [BitString(n, v) for n, v in ((0, 0), (1, 1), (2, 2), (3, 5), (5, 17),
                                          (64, 2**63 + 9), (65, 3), (72, 2**70))]
    sets = [
        [QubitString({w: complex(*rng.normal(size=2)) for w in reversed(words)})
         for _ in range(4)],
        [PSI, PHI, CHI],
        [ket(""), ket("0"), ket(""), (ket("") + ket("1")).normalized()],
        [QubitString({long: 0.6, "0": 0.8j}), QubitString({long: 0.8, "1": 0.6}),
         QubitString({long: 1.0})],
        [random_qstring(rng) for _ in range(5)],
        [QubitString({}), ket("01", 0.5)],
    ]
    for vectors in sets:
        assert prefix._orthonormality_defect(vectors) == _defect_reference(vectors)


def test_long_spoiled_comma_code_reports_its_planted_witness():
    length = 72
    words = ["1" * k + "0" for k in range(length)] + ["1" * length]
    phases = np.exp(2j * np.pi * np.random.default_rng(1).random(len(words) + 1))
    assert is_prefix_free([ket(w, p) for w, p in zip(words, phases)]) == (True, None)
    # the extension sits at index 30; the longest word, its prefix, ends the list
    spoiled = words[:30] + [words[-1] + "1"] + words[30:]
    ok, w = is_prefix_free([ket(s, p) for s, p in zip(spoiled, phases)])
    assert not ok
    assert (w.phi, w.psi, w.suffix) == (30, len(words), BitString(1, 1))

"""Random generators shared across the test modules.

Every generator takes an explicit numpy Generator, so any failure
reproduces from the seed the calling test used.
"""

from __future__ import annotations

import numpy as np

from qprefix import BitString, Ensemble, QubitString, ket

# Two-vector prefix-free subspace used as a running example, plus the
# balanced superposition of its basis vectors.
PSI = (ket("1") + ket("01")).normalized()
PHI = (ket("10") - ket("010")).normalized()
CHI = (PSI + PHI).normalized()


def random_prefix_code(rng: np.random.Generator, n: int,
                       max_len: int = 8, full: bool = True) -> list:
    """n code words from a random binary tree, sorted, as BitStrings.

    Splitting a leaf keeps the leaf set prefix-free with Kraft sum exactly
    one; with full=False one extra split plus a deletion leaves the sum
    strictly below one, so n must then stay below 2**max_len.
    """
    if not 2 <= n <= (1 << max_len) - (0 if full else 1):
        raise ValueError("need 2 <= n <= 2**max_len, and n < 2**max_len if not full")
    target = n if full else n + 1
    leaves = [BitString(0, 0)]
    while len(leaves) < target:
        splittable = [i for i, s in enumerate(leaves) if s.length < max_len]
        s = leaves.pop(splittable[int(rng.integers(len(splittable)))])
        leaves.append(BitString(s.length + 1, s.value << 1))
        leaves.append(BitString(s.length + 1, (s.value << 1) | 1))
    if not full:
        leaves.pop(int(rng.integers(len(leaves))))
    return sorted(leaves)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def rotated_basis(rng: np.random.Generator, words: list) -> list:
    """Orthonormal basis of span{|w_j>} mixed by a Haar-random unitary."""
    u = haar_unitary(rng, len(words))
    out = []
    for i in range(len(words)):
        v = QubitString({w: complex(u[j, i]) for j, w in enumerate(words)})
        out.append(v)
    return out


def random_qstring(rng: np.random.Generator, max_len: int = 4,
                   max_terms: int = 4) -> QubitString:
    """Normalized qubit string with well-separated support amplitudes.

    Moduli are kept in [0.3, 1] before normalization so no term can fall
    anywhere near the pruning threshold.
    """
    k = int(rng.integers(1, max_terms + 1))
    support = set()
    while len(support) < k:
        l = int(rng.integers(0, max_len + 1))
        support.add(BitString(l, int(rng.integers(0, 1 << l))))
    terms = {}
    for s in sorted(support):
        mod = 0.3 + 0.7 * float(rng.random())
        phase = np.exp(2j * np.pi * float(rng.random()))
        terms[s] = mod * complex(phase)
    return QubitString(terms).normalized()


def random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def span_residual(v: np.ndarray, basis: list) -> float:
    w = v.astype(complex).copy()
    for u in basis:
        w = w - np.vdot(u, w) * u
    return float(np.linalg.norm(w))


def random_dist(rng: np.random.Generator, n: int) -> tuple:
    """Probability vector with every weight at least about 1e-3."""
    raw = 0.001 + rng.random(n)
    return tuple(float(x) for x in raw / raw.sum())


def random_ensemble(rng: np.random.Generator, n: int, d: int,
                    degenerate: bool = False) -> Ensemble:
    """Ensemble whose rank structure is unambiguous at any sane tolerance.

    Fresh vectors are redrawn until they sit at least 0.05 away from the
    span of the previous ones (or until the span is already full, where
    dependence is exact).  With degenerate=True some states repeat an
    earlier vector, possibly with a phase.
    """
    vecs: list = []
    ortho: list = []
    for i in range(n):
        if degenerate and i > 0 and rng.random() < 0.35:
            prev = vecs[int(rng.integers(len(vecs)))]
            v = prev * np.exp(2j * np.pi * float(rng.random()))
        else:
            while True:
                v = random_unit(rng, d)
                w = v.copy()
                for u in ortho:
                    w = w - np.vdot(u, w) * u
                r = float(np.linalg.norm(w))
                if r >= 0.05:
                    ortho.append(w / r)
                    break
                if len(ortho) == d:
                    break
        vecs.append(v)
    return Ensemble.from_states(random_dist(rng, n), vecs)


def near_degenerate_ensemble(rng: np.random.Generator, n: int, d: int) -> Ensemble:
    """States e1, e2, a third pushed 1e-9..1e-5 off their span, then n - 3 more.

    The benchmark's near-degenerate recipe (``perfbench/workloads.py``):
    the third state sits near the span-decision threshold, and weights are
    0.2 + U(0, 1), normalized.  Needs n >= 3 and d >= 3.
    """
    v1, v2 = random_unit(rng, d), random_unit(rng, d)
    q, _ = np.linalg.qr(np.column_stack([v1, v2]))
    w = random_unit(rng, d)
    w = w - q @ (q.conj().T @ w)
    w /= np.linalg.norm(w)
    c = random_unit(rng, 2)
    inside = c[0] * v1 + c[1] * v2
    inside /= np.linalg.norm(inside)
    eps = 10.0 ** rng.uniform(-9.0, -5.0)
    v3 = inside + eps * w
    v3 /= np.linalg.norm(v3)
    vecs = [v1, v2, v3] + [random_unit(rng, d) for _ in range(n - 3)]
    p = 0.2 + rng.random(n)
    return Ensemble.from_states(p / p.sum(), vecs)

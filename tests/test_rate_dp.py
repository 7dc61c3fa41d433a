"""The exact level DP behind optimal_rate and monotone_entropy.

optimal_rate searches (closed set, level, free nodes) instead of listing
every sequential projection; these tests hold it to the enumeration, field
for field, and check it beyond the exhaustive oracles' n <= 8.
"""

import heapq
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import haar_unitary, near_degenerate_ensemble, random_ensemble
from qprefix import (Ensemble, build_code, decode, encode, monotone_entropy,
                     optimal_rate, sequential_projections)

seeds = st.integers(0, 2**30)


def huffman_cost(p):
    heap = [float(x) for x in p]
    heapq.heapify(heap)
    cost = 0.0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        cost += merged
        heapq.heappush(heap, merged)
    return cost


def enumerated_optimum(ens):
    """The rate search as a scan: every distinct p', first of the least."""
    best = min(sequential_projections(ens),
               key=lambda q: (monotone_entropy(q.probs)[0], q.probs))
    value, asg = monotone_entropy(best.probs)
    return value, best, asg


def orthogonal_ensemble(rng, n, values=3):
    """Haar-rotated orthonormal states whose weights repeat a few values."""
    u = haar_unitary(rng, n)
    pool = 0.2 + rng.random(values)
    w = pool[rng.integers(values, size=n)]
    return Ensemble.from_states(w / w.sum(), [u[:, i] for i in range(n)])


def draw(family, rng):
    n = int(rng.integers(3, 10))
    if family == "generic":
        return random_ensemble(rng, n, int(rng.integers(2, 6)))
    if family == "repeated":
        return random_ensemble(rng, n, int(rng.integers(2, 6)), degenerate=True)
    if family == "orthogonal":
        return orthogonal_ensemble(rng, n)
    return near_degenerate_ensemble(rng, n, int(rng.integers(3, 6)))


def von_neumann_entropy(ens):
    rho = sum(p * np.outer(v, v.conj()) for p, v in zip(ens.probs, ens.vectors))
    lam = np.linalg.eigvalsh(rho)
    return float(-sum(x * math.log2(x) for x in lam if x > 1e-15))


@settings(max_examples=40)
@given(st.sampled_from(["generic", "repeated", "orthogonal", "near"]), seeds)
def test_optimal_rate_equals_the_enumerated_optimum_field_for_field(family, seed):
    ens = draw(family, np.random.default_rng(seed))
    rate, proj, asg = optimal_rate(ens)
    want_rate, want, want_asg = enumerated_optimum(ens)
    assert rate == want_rate
    assert (proj.probs, proj.groups, proj.reps) == (want.probs, want.groups, want.reps)
    assert asg == want_asg


def test_projections_that_round_alike_keep_the_enumerations_witness():
    # {0, 1} weighs 0.1 + 0.2 = 0.30000000000000004 and {2} weighs 0.3: the
    # enumeration keeps the first of two p' that agree to 12 decimals, and
    # the rate search must return that one, not the exact least
    e = np.eye(3)
    ens = Ensemble.from_states((0.1, 0.2, 0.3, 0.4), [e[0], e[0], e[1], e[2]])
    rate, proj, asg = optimal_rate(ens)
    assert rate == 1.6
    assert proj.probs == (0.4, 0.30000000000000004, 0.3)
    assert proj.groups == ((3,), (0, 1), (2,))
    assert proj.reps == (3, 0, 2)
    assert asg.lengths == (1, 2, 2)
    want_rate, want, _ = enumerated_optimum(ens)
    assert (rate, proj.groups) == (want_rate, want.groups)


def test_near_degenerate_sweep_never_raises():
    rng = np.random.default_rng(2026)
    for _ in range(300):
        ens = near_degenerate_ensemble(rng, int(rng.integers(3, 7)), int(rng.integers(3, 6)))
        code = build_code(ens)
        projs = sequential_projections(ens)
        for proj in projs + (code.projection,):
            assert sorted(j for g in proj.groups for j in g) == list(range(ens.n))


ROUND2_N6 = (
    [
        0.15174338941065968, 0.12014329157208552, 0.18267464979758713,
        0.2167758732339859, 0.2011619139612893, 0.1275008820243924,
    ],
    [
        [(-0.4679906436634094, -0.12822607541372816),
         (0.5151177662872344, -0.21268236815396713),
         (-0.14870262049664265, -0.2539551873445814),
         (0.014511077588548743, 0.33619064478343824),
         (-0.10756230306230027, 0.4924963467728773)],
        [(0.08016297799313819, -0.06485407032074379),
         (-0.3824697631929764, -0.27120647116118946),
         (-0.02191171099819592, 0.17553873512063228),
         (0.735200703940715, -0.0792204968719852),
         (0.10341838344639956, 0.4251428958887277)],
        [(0.010201061362210932, -0.1298947484894347),
         (0.18500693838170224, 0.5128120200687277),
         (0.17673151027975878, -0.13689250749938134),
         (-0.6398787261264767, -0.23474304888926886),
         (-0.07428176431230744, -0.4071598070659194)],
        [(-0.6428190866871132, 0.2903775200613832),
         (0.07838987532089357, 0.20966977730443914),
         (-0.08599261073593423, 0.4654476733556356),
         (0.19870526543525485, -0.1291336502223839),
         (-0.2634440032635127, 0.32056175512015506)],
        [(-0.30906970614330664, 0.7425599453989473),
         (0.03995882823031714, 0.1515620863013198),
         (-0.0893394122797269, 0.06803644603814049),
         (0.5263777512061558, -0.02465834666711078),
         (0.1654404213315933, 0.10416466610365438)],
        [(-0.23058537860666267, 0.7047762562103799),
         (-0.3430604699185825, -0.05622626787423679),
         (-0.1707867125177059, -0.09341314302024102),
         (-0.11531358820989407, 0.4071314972762641),
         (-0.1640342603732334, 0.2922572460985457)],
    ])

ROUND4_N5 = (
    [
        0.1411542769270081, 0.20396115354957384, 0.20388957995237944,
        0.21196378500133156, 0.23903120456970706,
    ],
    [
        [(-0.5742474107239712, -0.03461791736773471),
         (0.5999779809891257, 0.2357880563828885),
         (-0.031447699689236115, -0.2053550405638901),
         (-0.4174412750377901, 0.18988169280741712)],
        [(-0.10933074031063497, 0.5454877137988087),
         (0.5805060904454322, 0.18992868127691864),
         (-0.04054037098248379, 0.4556547989963147),
         (0.32805157875482877, 0.02338936618514829)],
        [(0.09947998135926267, 0.14140742776445334),
         (-0.6594122324199913, 0.14683508299392783),
         (-0.41544705126812176, 0.2426033008776976),
         (0.49741245735314943, 0.1866838827660832)],
        [(-0.22061007715527584, -0.09226531297139028),
         (0.6337099087849438, 0.265245406194662),
         (-0.2888993684898027, 0.4720112483129454),
         (0.27539496367636285, 0.29795147627455154)],
        [(0.11617142880260717, 0.5438989888258076),
         (0.17395406446995657, -0.10093645076485558),
         (-0.1620709839518645, 0.22359965720093458),
         (-0.16496729307874783, 0.7394267287029667)],
    ])


def pinned(data):
    probs, states = data
    return Ensemble.from_states(probs, [[complex(re, im) for re, im in s] for s in states])


@pytest.mark.parametrize("data", [ROUND2_N6, ROUND4_N5], ids=["round2_n6", "round4_n5"])
def test_benchmark_ensembles_that_raised_in_span_now_build(data):
    # seed-0 rate_search ensembles on which a state lay within DEP_TOL of a
    # closed set's basis without joining its group, and the search raised
    # "representative already in span"; the straggler rule folds it in
    ens = pinned(data)
    rate, proj, asg = optimal_rate(ens)
    want_rate, want, want_asg = enumerated_optimum(ens)
    assert (rate, proj.probs, proj.groups, proj.reps) == (
        want_rate, want.probs, want.groups, want.reps)
    assert sorted(j for g in proj.groups for j in g) == list(range(ens.n))
    code = build_code(ens)
    v = ens.vectors[0]
    assert np.linalg.norm(decode(code, encode(code, v)) - v) < 1e-9


def test_orthogonal_rate_is_the_huffman_cost():
    rng = np.random.default_rng(5)
    for n in range(2, 11):
        ens = orthogonal_ensemble(rng, n, values=n)
        assert optimal_rate(ens)[0] == pytest.approx(huffman_cost(ens.probs), abs=1e-12)


@pytest.mark.parametrize("n, d, degenerate", [(12, 4, False), (12, 5, True), (10, 5, False)])
def test_rate_is_invariant_under_permutation_and_unitaries(n, d, degenerate):
    rng = np.random.default_rng(n * d)
    ens = random_ensemble(rng, n, d, degenerate=degenerate)
    rate = optimal_rate(ens)[0]
    order = rng.permutation(n)
    permuted = Ensemble.from_states([ens.probs[i] for i in order],
                                    [ens.vectors[i] for i in order])
    u = haar_unitary(rng, d)
    rotated = Ensemble.from_states(ens.probs, [u @ v for v in ens.vectors])
    assert optimal_rate(permuted)[0] == rate
    assert optimal_rate(rotated)[0] == rate


@given(seeds)
def test_rate_lies_between_the_von_neumann_entropy_and_log_dimension(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    ens = random_ensemble(rng, int(rng.integers(2, 11)), d, degenerate=bool(rng.integers(2)))
    rate, proj, _ = optimal_rate(ens)
    assert von_neumann_entropy(ens) <= rate + 1e-9
    assert rate <= math.ceil(math.log2(len(proj.probs))) + 1e-9
    assert len(proj.probs) <= d


def test_monotone_entropy_is_the_huffman_cost_on_nonincreasing_weights():
    rng = np.random.default_rng(64)
    for n in (2, 3, 5, 9, 17, 33, 64):
        p = sorted((float(x) for x in 0.01 + rng.random(n)), reverse=True)
        p = [x / math.fsum(p) for x in p]
        assert monotone_entropy(p)[0] == pytest.approx(huffman_cost(p), abs=1e-12)


def test_monotone_entropy_on_fibonacci_weights_is_fast():
    # the worst case of the old depth-first search: 96 s at n = 40
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    p = [x / sum(fib) for x in reversed(fib)]
    start = time.perf_counter()
    value, asg = monotone_entropy(p)
    assert time.perf_counter() - start < 10.0
    assert value == pytest.approx(huffman_cost(p), abs=1e-12)
    assert asg.lengths == tuple(range(1, 40)) + (39,)

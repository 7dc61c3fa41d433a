"""Seeded inputs for the four benchmark workloads.

Every workload is a list of rounds and every round a list of jobs.  A job is
one ``qprefix`` command line; the harness runs it in process through
``qprefix.cli.main``.  The shape of a round (which classes, which sizes, how
many trials) is fixed; the seed only draws the random content.  That keeps
the cost of a round nearly the same for every seed, so runs with different
seeds measure the same work.  Rounds differ from each other in content, so
repeating a round within one run is rare and no cross-call cache can live
off repeated inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("rate_search", "prefix_certify", "channel_sweep", "channel_superposed")
# Distinct rounds generated per run; the timed loop cycles through them.
ROUNDS = 6
# Rounds every timed run covers, about 15 s of work at the seed commit on
# 2 CPUs.  Every run then holds enough jobs for a tail with ten beyond it,
# and the tail percentile, fixed by this count, is the same in every run.
LEAST_ROUNDS = {"rate_search": 2, "prefix_certify": 2, "channel_sweep": 3,
                "channel_superposed": 3}


@dataclass
class Job:
    kind: str
    argv: list
    # index, within the round, of a job that must have succeeded first
    needs: int | None = None
    meta: dict = field(default_factory=dict)


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _haar(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _weights(rng, n):
    p = 0.2 + rng.random(n)
    return p / p.sum()


def _pairs(vec):
    return [[float(z.real), float(z.imag)] for z in vec]


def _is_orthogonal_up_to_duplicates(vecs, tol=1e-9):
    gram = np.abs(np.array(vecs).conj() @ np.array(vecs).T)
    return bool(np.all((gram < tol) | (np.abs(gram - 1.0) < tol)))


def random_prefix_code(rng, n, top):
    """A full binary prefix code with n words and longest word exactly ``top``.

    One random root-to-leaf path is split down to depth ``top`` first, so the
    longest word is guaranteed; then a random one of the shortest leaves is
    split until there are n words.  The Kraft sum is exactly 1.  Splitting
    the shortest leaves keeps the length profile, and with it the channel's
    cost per trial, the same for every seed.
    """
    if not top + 1 <= n <= 1 << top:
        raise ValueError("need top + 1 <= n <= 2**top")
    leaves = [""]
    while len(leaves) < top + 1:
        s = leaves.pop()
        a, b = s + "0", s + "1"
        leaves += [b, a] if rng.random() < 0.5 else [a, b]
    by_length = {}
    for s in leaves:
        by_length.setdefault(len(s), []).append(s)
    for _ in range(n - len(leaves)):
        least = min(by_length)
        bucket = by_length[least]
        s = bucket.pop(int(rng.integers(len(bucket))))
        if not bucket:
            del by_length[least]
        by_length.setdefault(least + 1, []).extend([s + "0", s + "1"])
    return sorted((w for bucket in by_length.values() for w in bucket),
                  key=lambda w: (len(w), w))


# --- rate_search -----------------------------------------------------------

# (n, d) of generic ensembles; oracle jobs run on every ensemble with n <= 8.
GENERIC = ((8, 4), (9, 4), (10, 4), (11, 4), (9, 5), (10, 5), (11, 5))
# (n, distinct states, d) for ensembles with repeated states.
DEGENERATE = ((10, 8, 4), (11, 9, 4), (12, 9, 5))
# (n, d) for near-degenerate ensembles: one state 1e-9..1e-5 off a 2-span.
NEAR = ((5, 4), (5, 4), (5, 4), (5, 4), (5, 4), (6, 5))
ORACLE_MAX_N = 8


def _near_degenerate(rng, n, d):
    v1, v2 = _unit(rng, d), _unit(rng, d)
    q, _ = np.linalg.qr(np.column_stack([v1, v2]))
    w = _unit(rng, d)
    w = w - q @ (q.conj().T @ w)
    w /= np.linalg.norm(w)
    c = _unit(rng, 2)
    inside = c[0] * v1 + c[1] * v2
    inside /= np.linalg.norm(inside)
    eps = 10.0 ** rng.uniform(-9.0, -5.0)
    v3 = inside + eps * w
    v3 /= np.linalg.norm(v3)
    vecs = [v1, v2, v3] + [_unit(rng, d) for _ in range(n - 3)]
    # v1 is never the near-dependent state, so it is the one encoded
    return vecs, 0


def _rate_items(rng):
    items = []
    e3 = np.eye(3)
    vecs = [np.kron(e3[i], e3[j]) for i in range(3) for j in range(3)]
    items.append(("e3xe3", [1.0 / 9.0] * 9, vecs, 9, 0))
    for n, d in GENERIC:
        items.append(("generic", _weights(rng, n), [_unit(rng, d) for _ in range(n)],
                      d, int(rng.integers(n))))
    for n, k, d in DEGENERATE:
        base = [_unit(rng, d) for _ in range(k)]
        vecs = base + [base[int(i)] for i in rng.integers(k, size=n - k)]
        order = rng.permutation(n)
        items.append(("degenerate", _weights(rng, n), [vecs[i] for i in order],
                      d, int(rng.integers(n))))
    # orthogonal sources with repeated weights: 9 states, three weights x 3,
    # and an orthonormal triple with every state duplicated
    u = _haar(rng, 9)
    w = np.repeat(0.2 + rng.random(3), 3)
    items.append(("orthogonal", w / w.sum(), [u[:, i] for i in rng.permutation(9)],
                  9, int(rng.integers(9))))
    u = _haar(rng, 3)
    w = np.repeat(0.2 + rng.random(3), 2)
    items.append(("orthogonal", w / w.sum(), [u[:, i % 3] for i in range(6)],
                  3, int(rng.integers(6))))
    for n, d in NEAR:
        vecs, src = _near_degenerate(rng, n, d)
        items.append(("near", _weights(rng, n), vecs, d, src))
    return items


def _rate_round(rng, folder):
    jobs = []
    for k, (cls, probs, vecs, d, src) in enumerate(_rate_items(rng)):
        stem = os.path.join(folder, "e%02d" % k)
        ens = {"dimension": d, "states": [{"p": float(p), "amps": _pairs(v)}
                                          for p, v in zip(probs, vecs)]}
        _dump(stem + ".ens.json", ens)
        _dump(stem + ".vec.json", {"amps": _pairs(vecs[src])})
        meta = {"class": cls, "n": len(vecs), "vector": _pairs(vecs[src]),
                "orthogonal": _is_orthogonal_up_to_duplicates(vecs)}
        r = len(jobs)
        jobs.append(Job("rate", ["rate", "--ensemble", stem + ".ens.json",
                                 "--output", stem + ".code.json"], None, meta))
        jobs.append(Job("encode", ["encode", "--code", stem + ".code.json",
                                   "--vector", stem + ".vec.json",
                                   "--output", stem + ".enc.json"], r, meta))
        jobs.append(Job("decode", ["decode", "--code", stem + ".code.json",
                                   "--qstring", stem + ".enc.json"], r + 1, meta))
        if len(vecs) <= ORACLE_MAX_N:
            meta["oracle_job"] = len(jobs)
            jobs.append(Job("oracle", ["oracle", "--ensemble", stem + ".ens.json"],
                            None, meta))
    return jobs


# --- prefix_certify ----------------------------------------------------------

# Job times in a round spread from milliseconds to about a second with no
# large cluster, so that, as on the channel workloads, the median and the
# tail job move smoothly when the machine's speed changes during a run.
COMMA = (8, 9, 10)
# (words, longest word) of Haar-rotated full prefix codes
ROTATED = ((16, 6), (12, 7), (11, 6), (10, 6), (8, 6), (8, 5))
# (comma length, index of the planted violation) of spoiled classical bases:
# one the scan reaches first, one it reaches last, the rest in between
SPOILED = ((8, 0), (9, 9), (9, 2), (9, 6), (10, 1), (10, 3), (10, 5), (10, 7))


def _comma(rng, length):
    words = ["1" * k + "0" for k in range(length)] + ["1" * length]
    if rng.random() < 0.5:
        words = [w.translate(str.maketrans("01", "10")) for w in words]
    return [words[i] for i in rng.permutation(len(words))]


def _classical_vectors(rng, words):
    out = []
    for w in words:
        phase = np.exp(2j * np.pi * rng.random())
        out.append({"terms": [{"bits": w, "re": float(phase.real),
                               "im": float(phase.imag)}]})
    return out


def _spoiled(rng, length, at):
    """A comma code where word k is replaced by an extension of word j.

    Word j then prefixes the new word and no other pair of words overlaps,
    so the scan's first witness is (phi=new word, psi=j, suffix).  The new
    word sits at index ``at`` and word j just before it (just after it when
    ``at`` is 0), so the scan stops about ``at / len(words)`` of the way
    through its pairs.
    """
    words = _comma(rng, length)
    # extending a longest word keeps the scan depth, and so its cost, fixed
    j = int(rng.choice([i for i, w in enumerate(words) if len(w) == length]))
    k = int(rng.choice([i for i in range(len(words)) if i != j]))
    suffix = str(int(rng.integers(2)))
    ext = words[j] + suffix
    rest = [w for i, w in enumerate(words) if i not in (j, k)]
    if at == 0:
        ordered = [ext, words[j]] + rest
        psi = 1
    else:
        ordered = rest[:at - 1] + [words[j], ext] + rest[at - 1:]
        psi = at - 1
    return ordered, {"phi": at, "psi": psi, "suffix": suffix}


def _prefix_round(rng, folder):
    bases = []
    for length in COMMA:
        words = _comma(rng, length)
        bases.append(("comma", _classical_vectors(rng, words),
                      {"prefixFree": True, "isClassical": True}))
    for n, top in ROTATED:
        words = random_prefix_code(rng, n, top)
        u = _haar(rng, n)
        vecs = [{"terms": [{"bits": w, "re": float(u[j, i].real),
                            "im": float(u[j, i].imag)} for j, w in enumerate(words)]}
                for i in range(n)]
        bases.append(("rotated", vecs, {"prefixFree": True, "isClassical": False}))
    for length, at in SPOILED:
        words, witness = _spoiled(rng, length, at)
        bases.append(("spoiled", _classical_vectors(rng, words),
                      {"prefixFree": False, "witness": witness}))
    jobs = []
    for k, (cls, vecs, expect) in enumerate(bases):
        path = os.path.join(folder, "b%02d.json" % k)
        _dump(path, {"vectors": vecs})
        jobs.append(Job("verify", ["verify", "--basis", path], None,
                        dict(expect, **{"class": cls})))
    return jobs


# --- channel_sweep -----------------------------------------------------------

# Trials of the three-symbol races: 1200-3600, evenly spread on a log scale
# and dealt to the rows in a fixed mixed order.  As on channel_superposed,
# job times then cover a range and the median job moves smoothly with the
# machine's speed.
SWEEP_TRIALS = tuple(round(1200 * 3 ** (k / 12))
                     for k in (6, 0, 9, 3, 12, 7, 1, 10, 4, 11, 2, 8, 5))
WIDE_TRIALS = 2200
SHORT = ["0", "10", "11"]
FIXED = ["00", "01", "10"]
SWEEP_PROBS = [0.5, 0.25, 0.25]
# (noise, q) rows raced with the three-symbol books; q grid as noise_sweep.py
SWEEP_ROWS = tuple(("bitflip", 0.5 * k / 8) for k in range(9)) + (
    ("depolarizing", 0.1), ("depolarizing", 0.3),
    ("phaseflip", 0.1), ("phaseflip", 0.3))
# q of the bit-flip rows racing a 16-word random book against 4-bit words
WIDE_ROWS = (0.05, 0.2)
WIDE_TOP = 6


def _sweep_round(rng, folder):
    short, fixed, dist = (os.path.join(folder, f) for f in
                          ("short.json", "fixed.json", "dist3.json"))
    _dump(short, {"words": SHORT})
    _dump(fixed, {"words": FIXED})
    _dump(dist, {"probs": SWEEP_PROBS})
    wide, four, dist16 = (os.path.join(folder, f) for f in
                          ("wide.json", "four.json", "dist16.json"))
    _dump(wide, {"words": random_prefix_code(rng, 16, WIDE_TOP)})
    _dump(four, {"words": [format(i, "04b") for i in range(16)]})
    p = rng.dirichlet(np.ones(16))
    _dump(dist16, {"probs": [float(x) for x in p]})
    races = [(short, fixed, dist, kind, q, trials, (2, 2))
             for (kind, q), trials in zip(SWEEP_ROWS, SWEEP_TRIALS)]
    races += [(wide, four, dist16, "bitflip", q, WIDE_TRIALS, (WIDE_TOP, 4))
              for q in WIDE_ROWS]
    jobs = []
    for book_a, book_b, d, kind, q, trials, tops in races:
        seed = int(rng.integers(1 << 31))
        jobs.append(Job("compare", ["compare", "--bookA", book_a, "--bookB", book_b,
                                    "--dist", d, "--noise", kind, "--q", repr(q),
                                    "--trials", str(trials), "--seed", str(seed)],
                        None, {"noise": kind, "q": q, "trials": trials, "tops": tops}))
    return jobs


# --- channel_superposed ------------------------------------------------------

# (words, longest word, noise, schedule, q, trials).  The book sizes of the
# noisy jobs spread evenly over 128-512 words, so job times cover a range
# instead of a few values: when the machine's speed changes partway through
# a run, the median job then moves smoothly rather than jumping between two
# clusters.
SUPERPOSED = (
    (128, 10, "none", "constant", 0.0, 10),
    (512, 12, "depolarizing", "constant", 0.3, 10),
    (160, 10, "depolarizing", "linear", 0.03, 10),
    (320, 11, "depolarizing", "constant", 0.3, 10),
    (224, 11, "depolarizing", "linear", 0.03, 10),
    (448, 12, "depolarizing", "linear", 0.03, 10),
    (128, 10, "depolarizing", "constant", 0.3, 10),
    (288, 11, "depolarizing", "linear", 0.03, 10),
    (384, 12, "depolarizing", "constant", 0.3, 10),
    (192, 11, "depolarizing", "constant", 0.3, 10),
    (352, 11, "depolarizing", "linear", 0.03, 10),
    (256, 11, "depolarizing", "constant", 0.3, 10),
)


def _superposed_round(rng, folder):
    jobs = []
    for k, (n, top, kind, schedule, q, trials) in enumerate(SUPERPOSED):
        words = random_prefix_code(rng, n, top)
        amps = _unit(rng, n)
        code = os.path.join(folder, "book%02d.json" % k)
        msg = os.path.join(folder, "msg%02d.json" % k)
        _dump(code, {"words": [words[i] for i in rng.permutation(n)]})
        _dump(msg, {"terms": [{"bits": w, "re": float(a.real), "im": float(a.imag)}
                              for w, a in zip(words, amps)]})
        seed = int(rng.integers(1 << 31))
        jobs.append(Job("simulate", ["simulate", "--code", code, "--message", msg,
                                     "--noise", kind, "--schedule", schedule,
                                     "--q", repr(q), "--trials", str(trials),
                                     "--seed", str(seed)],
                        None, {"noise": kind, "schedule": schedule, "q": q,
                               "trials": trials, "lmax": top}))
    return jobs


_ROUND_MAKERS = {
    "rate_search": _rate_round,
    "prefix_certify": _prefix_round,
    "channel_sweep": _sweep_round,
    "channel_superposed": _superposed_round,
}


def _round(workload, rng, folder):
    os.makedirs(folder, exist_ok=True)
    return _ROUND_MAKERS[workload](rng, folder)


def build(workload, seed, workdir):
    """Write the inputs under ``workdir``; return the rounds and the warm-up job.

    The warm-up job comes from an extra round drawn from a random stream of
    its own, so no timed job shares its input.  It is the round's first
    independent job other than the fixed E3xE3 ensemble.
    """
    stream = [seed, WORKLOADS.index(workload)]
    rng = np.random.default_rng(stream)
    rounds = [_round(workload, rng, os.path.join(workdir, "r%d" % r)) for r in range(ROUNDS)]
    warm = _round(workload, np.random.default_rng(stream + [1]), os.path.join(workdir, "warm"))
    warmup = next(job for job in warm
                  if job.needs is None and job.meta.get("class") != "e3xe3")
    return rounds, warmup

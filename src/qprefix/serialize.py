"""JSON formats for the fixture corpus and the command-line tool.

Everything is plain JSON so fixtures stay human-diffable: complex numbers
are [re, im] pairs, bit strings are 0/1 text (empty text for the empty
word), matrices are nested row-major lists.  Probabilities may be given as
JSON numbers or as decimal text; they are converted to float exactly once
on load.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .channel import CodeBook
from .codec import Ensemble, LosslessCode, SequentialProjection
from .errors import ValidationError
from .qstring import EPS, BitString, QubitString, _check_text


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError("input file not found: %s" % path)
    except json.JSONDecodeError as exc:
        raise ValidationError("malformed JSON in %s: %s" % (path, exc))


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError("missing %r in %s" % (key, where))
    return obj[key]


def _as_float(x, what):
    """A finite float from a JSON number (or numeric text)."""
    try:
        value = float(x)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("bad %s %r" % (what, x))
    if not math.isfinite(value):
        raise ValidationError("%s must be finite, got %r" % (what, x))
    return value


def _as_prob(x):
    return _as_float(x, "probability")


def _as_list(x, where):
    if not isinstance(x, list):
        raise ValidationError("%s must be a list" % where)
    return x


def _complex_pairs(pairs, what):
    """Finite complex numbers from a list of [re, im] pairs of JSON numbers."""
    try:
        out = [complex(re, im) for re, im in _as_list(pairs, what)]
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("%s must be [re, im] pairs" % what)
    if not all(map(cmath.isfinite, out)):
        raise ValidationError("%s must be finite" % what)
    return out


def qstring_to_obj(psi: QubitString) -> dict:
    return {"terms": [{"bits": s.text, "re": a.real, "im": a.imag}
                      for s, a in psi.items_sorted()]}


def qstring_from_obj(obj) -> QubitString:
    """Sum the terms per bit string in input order, then prune the sums."""
    terms = _as_list(_require(obj, "terms", "qubit string"), "qubit string terms")
    acc = {}
    for t in terms:
        text = _require(t, "bits", "qubit string term")
        _check_text(text)
        amp = complex(_as_float(t.get("re", 0.0), "amplitude"),
                      _as_float(t.get("im", 0.0), "amplitude"))
        acc[text] = acc.get(text, 0j) + amp
    return QubitString._from_sums({BitString._from_checked(s): a for s, a in acc.items()})


def vector_to_obj(vec) -> dict:
    v = np.asarray(vec, dtype=complex)
    return {"amps": [[z.real, z.imag] for z in v]}


def vector_from_obj(obj):
    return np.array(_complex_pairs(_require(obj, "amps", "vector"), "vector amps"))


def ensemble_to_obj(ensemble: Ensemble) -> dict:
    return {"dimension": ensemble.dimension,
            "states": [{"p": p, "amps": vector_to_obj(v)["amps"]}
                       for p, v in zip(ensemble.probs, ensemble.vectors)]}


def ensemble_from_obj(obj) -> Ensemble:
    dim = _require(obj, "dimension", "ensemble")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValidationError("ensemble dimension must be an integer >= 1, got %r" % (dim,))
    states = _require(obj, "states", "ensemble")
    if not isinstance(states, list) or not states:
        raise ValidationError("ensemble needs a nonempty state list")
    probs = [_as_prob(_require(s, "p", "ensemble state")) for s in states]
    vecs = [vector_from_obj(s) for s in states]
    return Ensemble.from_states(probs, vecs, dim)


def basis_from_obj(obj):
    vectors = _as_list(_require(obj, "vectors", "basis"), "basis vectors")
    return [qstring_from_obj(v) for v in vectors]


def projection_to_obj(proj: SequentialProjection) -> dict:
    return {"probs": list(proj.probs),
            "groups": [list(g) for g in proj.groups],
            "reps": list(proj.reps)}


def _matrix_to_obj(mat) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_obj(rows):
    rows = [_complex_pairs(row, "matrix entries") for row in _as_list(rows, "matrix")]
    try:
        return np.array(rows)
    except ValueError:  # rows of different lengths
        raise ValidationError("matrix rows must have equal lengths")


def code_to_obj(code: LosslessCode) -> dict:
    return {"codewords": [w.text for w in code.codewords],
            "lengths": list(code.lengths),
            "isometry": _matrix_to_obj(code.isometry),
            "projection": projection_to_obj(code.projection),
            "rate": code.rate,
            "dimension": code.dimension}


def code_from_obj(obj) -> LosslessCode:
    # the code words must be distinct and prefix-free, as in a code book
    words = CodeBook.from_texts(
        _as_list(_require(obj, "codewords", "code"), "code words")).words
    isometry = _matrix_from_obj(_require(obj, "isometry", "code"))
    proj_obj = _require(obj, "projection", "code")

    def proj_list(key):
        return _as_list(_require(proj_obj, key, "code projection"), "projection " + key)

    proj = SequentialProjection(
        tuple(_as_prob(x) for x in proj_list("probs")),
        tuple(tuple(_as_list(g, "projection group")) for g in proj_list("groups")),
        tuple(proj_list("reps")))
    rate = _as_float(_require(obj, "rate", "code"), "rate")
    if isometry.ndim != 2 or isometry.shape[0] != len(words):
        raise ValidationError("isometry shape does not match the code words")
    return LosslessCode(words, isometry, isometry.conj(), proj, rate)


def book_from_obj(obj) -> CodeBook:
    # accept a plain book file or a full code file
    if isinstance(obj, dict) and "words" in obj:
        texts = obj["words"]
    elif isinstance(obj, dict) and "codewords" in obj:
        texts = obj["codewords"]
    else:
        raise ValidationError("expected a code book ('words') or code ('codewords') file")
    if not isinstance(texts, list):
        raise ValidationError("code words must form a list")
    return CodeBook.from_texts(texts)


def dist_from_obj(obj):
    probs = [_as_prob(x) for x in _as_list(_require(obj, "probs", "distribution"),
                                           "distribution probs")]
    if (not probs or any(not 0.0 <= x <= 1.0 for x in probs)
            or abs(math.fsum(probs) - 1.0) > EPS):
        raise ValidationError("not a probability distribution")
    return probs


def round_floats(value, ndigits: int = 12):
    """Recursively round floats so reports are byte-stable at 12 decimals."""
    if isinstance(value, float):
        return round(value, ndigits)
    if isinstance(value, dict):
        return {k: round_floats(v, ndigits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v, ndigits) for v in value]
    return value

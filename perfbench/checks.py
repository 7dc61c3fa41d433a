"""Output checks for benchmark jobs.

Each job passes two kinds of check.  The math check depends on the job
type and holds for every seed.  The digest check holds for the seeds frozen
in ``digests.json``: every report field present when the digests were
frozen must hash to the same value at 12-decimal rounding; fields added
since are ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

TOL = 1e-9
# Exit-2 message of the near-degenerate rate defect (see ROADMAP item 5).
KNOWN_DEFECT = "internal: representative already in span"
# Largest round-trip error on a near-degenerate ensemble that still counts as
# that known defect; 1.26e-9 has been seen (seed 14).
NEAR_DECODE_TOL = 1e-6
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _rounded(value):
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def field_digests(report):
    """Short hash of every top-level report field at 12-decimal rounding."""
    return {key: hashlib.sha256(json.dumps(_rounded(value), sort_keys=True)
                                .encode()).hexdigest()[:16]
            for key, value in report.items()}


def load_digests(workload, seed):
    """Frozen digests as rounds of per-job field maps, or None if not frozen."""
    with open(DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh)
    return frozen.get(workload, {}).get(str(seed))


class Outcome:
    """Verdict for one job attempt."""

    __slots__ = ("ok", "known_defect", "oracle_disagrees", "reason")

    def __init__(self, ok, reason="", known_defect=False, oracle_disagrees=False):
        self.ok = ok
        self.reason = reason
        self.known_defect = known_defect
        self.oracle_disagrees = oracle_disagrees


def _close(a, b, tol=TOL):
    return abs(a - b) <= tol


def _rate(job, report, oracle_report):
    if oracle_report is None:
        return Outcome(True)
    value = oracle_report["value"]
    if _close(report["rate"], value):
        return Outcome(True)
    if job.meta["class"] == "near":
        return Outcome(True, oracle_disagrees=True)
    return Outcome(False, "rate %r differs from oracle %r" % (report["rate"], value))


def _decode(job, report):
    got = report["amps"]
    want = job.meta["vector"]
    if len(got) != len(want):
        return Outcome(False, "decoded dimension %d, expected %d" % (len(got), len(want)))
    err = math.sqrt(math.fsum((g[0] - w[0]) ** 2 + (g[1] - w[1]) ** 2
                              for g, w in zip(got, want)))
    if err > TOL:
        # classical Gram-Schmidt on a near-dependent representative leaves the
        # code basis non-orthonormal at about this level (ROADMAP item 5); a
        # larger error is a new fault, known or not
        return Outcome(False, "decode(encode(v)) is %.3g away from v" % err,
                       known_defect=job.meta["class"] == "near" and err <= NEAR_DECODE_TOL)
    return Outcome(True)


def _verify(job, report):
    meta = job.meta
    if report["orthonormal"] is not True:
        return Outcome(False, "basis reported non-orthonormal")
    if report["prefixFree"] != meta["prefixFree"]:
        return Outcome(False, "prefixFree %r, constructed %r"
                       % (report["prefixFree"], meta["prefixFree"]))
    if not meta["prefixFree"]:
        if report["witness"] != meta["witness"]:
            return Outcome(False, "witness %r, planted %r"
                           % (report["witness"], meta["witness"]))
        return Outcome(True)
    if report["isClassical"] != meta["isClassical"]:
        return Outcome(False, "isClassical %r" % report["isClassical"])
    # every constructed basis spans a full code, whose Kraft sum is 1
    if not _close(report["kraft"][2], 1.0):
        return Outcome(False, "Kraft trace term %r != 1" % report["kraft"][2])
    return Outcome(True)


def _compare(job, report):
    if report["trials"] != job.meta["trials"]:
        return Outcome(False, "trials %r" % report["trials"])
    for book in report["books"]:
        rate = book["successRate"]
        if not 0.0 <= rate <= 1.0:
            return Outcome(False, "success rate %r" % rate)
        if job.meta["noise"] == "bitflip":
            if abs(rate - book["analytic"]) > 4.0 * book["stdErr"] + TOL:
                return Outcome(False, "empirical %r is over 4 stdErr from analytic %r"
                               % (rate, book["analytic"]))
    return Outcome(True)


def _simulate(job, report):
    meta = job.meta
    if report["trials"] != meta["trials"] or len(report["perStep"]) != meta["lmax"]:
        return Outcome(False, "trials or perStep do not match the job")
    fid = report["meanFidelity"]
    if meta["noise"] == "none":
        if not _close(fid, 1.0) or report["disentangled"] is not True:
            return Outcome(False, "noiseless run: fidelity %r, disentangled %r"
                           % (fid, report["disentangled"]))
    elif not -TOL <= fid <= 1.0 + TOL:
        return Outcome(False, "mean fidelity %r" % fid)
    return Outcome(True)


def check(job, code, out, err, frozen, oracle_report=None):
    """Check one attempt; ``frozen`` is the job's field digests or None."""
    if code != 0:
        if (code == 2 and job.kind == "rate" and job.meta["class"] == "near"
                and KNOWN_DEFECT in err):
            return Outcome(False, "known defect: " + KNOWN_DEFECT, known_defect=True)
        return Outcome(False, "exit %d: %s" % (code, err.strip()[:200]))
    try:
        report = json.loads(out)
    except ValueError:
        return Outcome(False, "stdout is not one JSON report")
    if frozen:
        now = field_digests(report)
        changed = sorted(k for k, h in frozen.items() if now.get(k) != h)
        if changed:
            return Outcome(False, "fields differ from frozen digest: %s" % ", ".join(changed))
    try:
        if job.kind == "rate":
            return _rate(job, report, oracle_report)
        if job.kind == "decode":
            return _decode(job, report)
        if job.kind == "verify":
            return _verify(job, report)
        if job.kind == "compare":
            return _compare(job, report)
        if job.kind == "simulate":
            return _simulate(job, report)
    except (KeyError, TypeError, IndexError) as exc:
        return Outcome(False, "report lacks an expected field: %r" % (exc,))
    return Outcome(True)

"""Per-layer metrics derived from a traced replay.

Layers are the ``qprefix`` modules.  ``calls`` counts spans (calls entered
from another function), ``busy_s`` is inclusive time without double
counting nested spans of the same group, and ``self_s`` is busy time minus
the time covered by child spans.  Counts from the tracer's hooks keep the
``.count`` suffix; ``channel.config_steps.count`` is computed from
arguments (trials x l_max x message support), not observed, and its unit
says so.
"""

from __future__ import annotations

import math

import tracing


def _identity_share(job):
    """Probability that a trial draws the identity branch at every step."""
    meta = job.meta
    kind, q = meta["noise"], meta["q"]
    if kind == "none":
        return 1.0
    keep = (lambda x: 1.0 - 0.75 * x) if kind == "depolarizing" else (lambda x: 1.0 - x)
    if job.kind == "compare":
        # average over the two books of the race, l_max steps each
        return sum(keep(q) ** top for top in meta["tops"]) / len(meta["tops"])
    steps = ([min(1.0, q * i) for i in range(1, meta["lmax"] + 1)]
             if meta["schedule"] == "linear" else [q] * meta["lmax"])
    return math.prod(keep(x) for x in steps)


def per_layer(tracer, jobs, traced_wall, plain_wall, verdicts, report_bytes):
    """Metrics of the traced attempts; ``jobs`` holds the job of each one."""
    spans = tracing.SpanTable(tracer)
    counts = tracer.counts
    out = {}

    def fn(name):
        return spans.mask(lambda n: n == name)

    def add(name, value, unit):
        out[name] = (value, unit)

    def timing(name, *kinds):
        m = fn(name)
        for kind in kinds:
            if kind == "calls":
                add(name + ".calls", spans.calls(m), "count")
            elif kind == "busy_s":
                add(name + ".busy_s", spans.busy(m), "s")
            else:
                add(name + ".self_s", spans.self_s(m), "s")

    timing("codec.sequential_projections", "calls", "busy_s", "self_s")
    add("codec.projections.count", counts["codec.projections"], "count")
    timing("codec.monotone_entropy", "calls", "busy_s")
    timing("codec.optimal_rate", "self_s")
    timing("codec.build_code", "busy_s")
    timing("prefix.gram_schmidt", "calls", "busy_s")
    timing("prefix.is_prefix_free", "calls", "busy_s")
    verifies = spans.calls(fn("cli.cmd_verify"))
    add("prefix.is_prefix_free.calls_per_verify",
        spans.calls(fn("prefix.is_prefix_free")) / verifies if verifies else 0.0, "ratio")
    timing("prefix.kraft_chain", "busy_s")
    timing("prefix.is_orthonormal", "busy_s")
    timing("channel.init_channel", "calls", "busy_s")
    timing("channel.compare_codes", "self_s")
    add("channel.trials.count", counts["channel.trials"], "count")
    add("channel.trial_steps.count", counts["channel.trial_steps"], "count")
    timing("channel.run", "busy_s", "self_s")
    add("channel.config_steps.count", counts["channel.config_steps"], "computed_count")
    busy = spans.busy(spans.mask(lambda n: n in ("channel.run", "channel.compare_codes")))
    add("channel.config_steps_per_busy_s",
        counts["channel.config_steps"] / busy if busy else 0.0, "1/s")
    timing("channel.CodeBook", "calls", "busy_s")

    qstring = spans.mask(lambda n: n.startswith("qstring."))
    add("qstring.calls", spans.calls(qstring), "count")
    add("qstring.busy_s", spans.busy(qstring), "s")
    timing("serialize.load_json", "busy_s")
    add("serialize.load_json.bytes", counts["serialize.load_json.bytes"], "bytes")
    add("serialize.from_obj.busy_s",
        spans.busy(spans.mask(lambda n: n.startswith("serialize.") and n.endswith("_from_obj"))),
        "s")
    add("serialize.to_obj.busy_s",
        spans.busy(spans.mask(lambda n: n.startswith("serialize.") and (
            n.endswith("_to_obj") or n == "serialize.round_floats"))), "s")
    add("cli.report_bytes", report_bytes, "bytes")
    timing("cli.main", "calls", "busy_s", "self_s")
    add("cli.exit2.count", counts["cli.exit2"], "count")
    timing("bruteforce.rate_bruteforce", "calls", "busy_s")
    add("bruteforce.oracle_disagreements.count",
        sum(v.oracle_disagrees for v in verdicts), "count")

    for module in tracing.MODULES:
        add(module + ".self_s",
            spans.self_s(spans.mask(lambda n, m=module: n.startswith(m + "."))), "s")

    channel_jobs = [job for job in jobs if job.kind in ("compare", "simulate")]
    add("channel.identity_trial_share",
        sum(map(_identity_share, channel_jobs)) / len(channel_jobs) if channel_jobs else 0.0,
        "ratio")
    rate_jobs = [job for job in jobs if job.kind == "rate"]
    add("codec.orthogonal_share",
        sum(job.meta["orthogonal"] for job in rate_jobs) / len(rate_jobs) if rate_jobs else 0.0,
        "ratio")

    add("trace.overhead_frac", traced_wall / plain_wall - 1.0, "ratio")
    add("trace.main_coverage_frac", out["cli.main.busy_s"][0] / traced_wall, "ratio")
    add("trace.spans.count", spans.count, "count")
    return out

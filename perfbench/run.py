#!/usr/bin/env python3
"""qprefix benchmark: one closed-loop client driving ``qprefix.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rate_search --seed 0 --seconds 15 --trace 0

One process, one client, no threads: each job is one in-process
``qprefix.cli.main(argv)`` call on inputs generated from ``--seed``, and the
next job starts when the previous one returns.  The timed phase runs whole
rounds of jobs until ``--seconds`` have passed, and at least the
workload's least number of rounds.  Every output is checked
(see ``checks.py``) when its round ends, and only the verdict and the wall
time are kept.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the jobs
of round 0, each twice in a row, untraced and then with every public
``qprefix`` function wrapped (see ``tracing.py``), and reports the
per-layer metrics of the traced runs together with the tracing overhead.
The traced run covers the same jobs whatever ``--seconds`` is, so its
counts and times compare across commits.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

WORKDIR = ".bench_work"
# Set-up is timed in this many fresh processes, half before and half after
# the timed phase, and the median reported, so one slow start, or one slow
# stretch of the machine, does not decide the figure.
SETUP_REPS = 6
# The tail is the highest percentile with this many jobs beyond it in a
# run of the workload's least number of rounds.
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="run the set-up alone, print 'ready' and exit "
                        "(how setup_s is timed in a fresh process)")
    return p.parse_args(argv)


def call(cli, argv):
    """One job: returns (wall s, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed job, not a crashed benchmark
            err.write("uncaught %r" % (exc,))
            code = 1
        wall = time.perf_counter() - start
    return wall, code, out.getvalue(), err.getvalue()


class Judge:
    """Checks the attempts of one round; identical outputs of a job are checked once."""

    def __init__(self, workload, seed, rounds):
        self.rounds = rounds
        self.frozen = checks.load_digests(workload, seed)
        self.seen = {}

    def round(self, r, pending):
        """Verdicts for ``pending``, a list of (job index, wall, code, out, err)."""
        jobs = self.rounds[r]
        by_job = {j: (code, out) for j, _, code, out, _ in pending}
        verdicts = []
        for j, _, code, out, err in pending:
            key = (r, j, code, hashlib.sha1((out + "\0" + err).encode()).digest())
            if key not in self.seen:
                job = jobs[j]
                oracle = None
                if job.kind == "rate" and "oracle_job" in job.meta:
                    o_code, o_out = by_job.get(job.meta["oracle_job"], (1, ""))
                    oracle = json.loads(o_out) if o_code == 0 else None
                digest = self.frozen[r][j] if self.frozen else None
                self.seen[key] = checks.check(job, code, out, err, digest, oracle)
            verdicts.append(self.seen[key])
        return verdicts


class Client:
    """Runs jobs through ``qprefix.cli.main`` and keeps each attempt's verdict."""

    def __init__(self, cli, judge):
        self.cli = cli
        self.judge = judge
        # (round, job index, wall s, traced?, verdict) of every attempt
        self.log = []
        self.report_bytes = 0  # stdout of the traced attempts
        self.check_s = 0.0

    def attempt(self, j, job, pending):
        wall, code, out, err = call(self.cli, job.argv)
        pending.append((j, wall, code, out, err, False))
        return code == 0

    def run_round(self, rounds, r):
        """Run round ``r``, judge it; returns its attempts and their verdicts."""
        r %= len(rounds)
        ok = [False] * len(rounds[r])
        pending = []
        for j, job in enumerate(rounds[r]):
            if job.needs is None or ok[job.needs]:
                ok[j] = self.attempt(j, job, pending)
        start = time.perf_counter()
        verdicts = self.judge.round(r, [p[:5] for p in pending])
        for (j, wall, _, out, _, traced), verdict in zip(pending, verdicts):
            self.log.append((r, j, wall, traced, verdict))
            if traced:
                self.report_bytes += len(out)
        self.check_s += time.perf_counter() - start
        return pending, verdicts

    def run_for(self, rounds, seconds, least):
        """Whole rounds until ``seconds`` have passed and at least ``least``
        rounds have run; returns (rounds run, wall s)."""
        start = time.perf_counter()
        r = 0
        while True:
            self.run_round(rounds, r)
            r += 1
            if r >= least and time.perf_counter() - start >= seconds:
                return r, time.perf_counter() - start


class TracedClient(Client):
    """Runs each job untraced, then at once again under the tracer.

    Pairing the two runs of a job keeps slow drifts in machine speed out of
    ``trace.overhead_frac``.
    """

    def __init__(self, cli, judge, tracer):
        super().__init__(cli, judge)
        self.tracer = tracer

    def attempt(self, j, job, pending):
        plain_ok = super().attempt(j, job, pending)
        self.tracer.job_id = sum(p[5] for p in pending)
        self.tracer.install()
        try:
            wall, code, out, err = call(self.cli, job.argv)
        finally:
            self.tracer.uninstall()
        pending.append((j, wall, code, out, err, True))
        return plain_ok and code == 0


def setup(workload, seed, cli):
    """Generate and write the inputs, then run one untimed warm-up job.

    The warm-up job is drawn apart from the timed rounds, so no timed job
    repeats its input.
    """
    shutil.rmtree(os.path.join(WORKDIR, workload), ignore_errors=True)
    rounds, warmup = workloads.build(workload, seed, os.path.join(WORKDIR, workload))
    call(cli, warmup.argv)
    return rounds


def time_setup(args, reps):
    """Times, in ``reps`` fresh processes, from spawn to the first job.

    Each process starts the interpreter, imports ``qprefix``, writes the
    inputs and runs the warm-up job, as the measuring process does before
    its timed phase; one-time costs of a first call are paid in every one.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up process failed with exit %d" % child.returncode)
        times.append(ready)
    return times


def percentile_tail(walls, least):
    """Wall time at the tail percentile; returns (wall, percentile, jobs beyond).

    The percentile is the highest with ``TAIL_BEYOND`` jobs beyond it among
    ``least`` jobs, the job count of the least number of rounds.  Being
    fixed, it does not move with the number of rounds a run happens to
    cover, and a longer run has more jobs beyond it.  A run with fewer
    jobs (some not attempted after a failure) keeps ``TAIL_BEYOND``.
    """
    walls = sorted(walls)
    n = len(walls)
    idx = max(min(-(-(least - TAIL_BEYOND) * n // least), n - TAIL_BEYOND) - 1, 0)
    return walls[idx], 100.0 * (idx + 1) / n, n - idx - 1


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "load_model": "closed loop, 1 client, 1 process"}


def end_to_end(args, cli):
    setup_reps = time_setup(args, SETUP_REPS // 2)
    rounds = setup(args.workload, args.seed, cli)
    client = Client(cli, Judge(args.workload, args.seed, rounds))
    least = workloads.LEAST_ROUNDS[args.workload]
    n_rounds, elapsed = client.run_for(rounds, args.seconds, least)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_reps += time_setup(args, SETUP_REPS - SETUP_REPS // 2)
    walls = [entry[2] for entry in client.log]
    ok_jobs = sum(entry[4].ok for entry in client.log)
    timed_s = elapsed - client.check_s
    tail, pct, beyond = percentile_tail(walls, least * len(rounds[0]))
    metrics = {
        "setup_s": (statistics.median(setup_reps), "s"),
        "jobs_per_s": (ok_jobs / timed_s, "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"rounds": n_rounds, "timed_s": timed_s, "check_s": client.check_s,
              "jobs": len(walls), "setup_reps_s": setup_reps, "tail_percentile": pct,
              "tail_jobs_beyond": beyond}
    return client.log, metrics, detail


def traced(args, rounds, cli):
    import layers
    import tracing

    tracer = tracing.Tracer()
    client = TracedClient(cli, Judge(args.workload, args.seed, rounds), tracer)
    client.run_round(rounds, 0)
    tracer.save(os.path.join(WORKDIR, args.workload, "spans-seed%d.npz" % args.seed))
    plain = [entry for entry in client.log if not entry[3]]
    traced_runs = [entry for entry in client.log if entry[3]]
    metrics = layers.per_layer(
        tracer, [rounds[r][j] for r, j, *_ in traced_runs],
        traced_wall=sum(entry[2] for entry in traced_runs),
        plain_wall=sum(entry[2] for entry in plain),
        verdicts=[entry[4] for entry in traced_runs],
        report_bytes=client.report_bytes)
    detail = {"rounds": 1, "jobs": len(traced_runs), "spans": len(tracer.start)}
    return client.log, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qprefix", "cli.py")):
        sys.stderr.write("perfbench: no src/qprefix/cli.py under %s; "
                         "run from the root of a qprefix checkout\n" % os.getcwd())
        return 2
    sys.path.insert(0, src)
    from qprefix import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write("perfbench: imported qprefix from %s, not from %s\n"
                         % (cli.__file__, src))
        return 2
    if args.setup_only:
        setup(args.workload, args.seed, cli)
        print("ready", flush=True)
        return 0

    if args.trace:
        log, metrics, detail = traced(args, setup(args.workload, args.seed, cli), cli)
    else:
        log, metrics, detail = end_to_end(args, cli)

    verdicts = [entry[4] for entry in log]
    failed = sum(not v.ok for v in verdicts)
    unexpected = [(r, j, v.reason) for r, j, _, _, v in log if not v.ok and not v.known_defect]
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(), "failed_frac": failed / max(len(log), 1),
        "known_defect_failures": sum(v.known_defect for v in verdicts),
        "oracle_disagreements": sum(v.oracle_disagrees for v in verdicts),
        "unexpected_failures": unexpected[:10],
    })
    print("perfbench " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(log),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

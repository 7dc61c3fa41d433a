"""Command-line interface.

Every subcommand reads JSON files, prints one JSON report to stdout (floats
rounded to 12 decimals, keys sorted, so identical inputs and seed produce
byte-identical output), and echoes its resolved configuration under
"config".  Exit codes: 0 success, 2 validation problem, 1 internal error;
errors are mirrored as {"error": ...} on stderr.

The argument parser is built once, when the module is imported, and holds
no functions: :func:`main` dispatches subcommand ``X`` to the module's
``cmd_X`` by name at call time.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bruteforce, channel, codec, prefix, serialize
from .errors import ValidationError


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(serialize.round_floats(report), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _noise_from_args(args) -> channel.NoiseModel:
    return channel.NoiseModel(kind=args.noise, q=args.q,
                              schedule=args.schedule, seed=args.seed)


def _noise_obj(noise: channel.NoiseModel) -> dict:
    return {"kind": noise.kind, "q": noise.q,
            "schedule": noise.schedule, "seed": noise.seed}


def cmd_verify(args) -> dict:
    vectors = serialize.basis_from_obj(serialize.load_json(args.basis))
    orthonormal = prefix.is_orthonormal(vectors)
    ok, witness = prefix.is_prefix_free(vectors)
    report = {
        "command": "verify",
        "config": {"basis": args.basis},
        "orthonormal": orthonormal,
        "prefixFree": ok,
        "witness": None,
    }
    if witness is not None:
        report["witness"] = {"phi": witness.phi, "psi": witness.psi,
                             "suffix": witness.suffix.text}
    if orthonormal and ok:
        basis = prefix.PrefixBasis.from_certified(vectors)
        chain = prefix.kraft_chain(basis)
        report["kraft"] = [chain.sum_base, chain.sum_avg, chain.trace_term]
        report["isClassical"] = basis.is_classical
    else:
        report["kraft"] = None
        report["isClassical"] = None
    return report


def cmd_rate(args) -> dict:
    ensemble = serialize.ensemble_from_obj(serialize.load_json(args.ensemble))
    code = codec.build_code(ensemble)
    report = serialize.code_to_obj(code)
    report["command"] = "rate"
    report["config"] = {"ensemble": args.ensemble,
                        "allProjections": bool(args.all_projections)}
    report["shannon"] = codec.shannon_entropy(ensemble.probs)
    if args.all_projections:
        report["projections"] = [serialize.projection_to_obj(p)
                                 for p in codec.sequential_projections(ensemble)]
    return report


def cmd_encode(args) -> dict:
    code = serialize.code_from_obj(serialize.load_json(args.code))
    vector = serialize.vector_from_obj(serialize.load_json(args.vector))
    encoded = codec.encode(code, vector)
    report = serialize.qstring_to_obj(encoded)
    report["command"] = "encode"
    report["config"] = {"code": args.code, "vector": args.vector}
    return report


def cmd_decode(args) -> dict:
    code = serialize.code_from_obj(serialize.load_json(args.code))
    qstring = serialize.qstring_from_obj(serialize.load_json(args.qstring))
    vector = codec.decode(code, qstring)
    report = serialize.vector_to_obj(vector)
    report["command"] = "decode"
    report["config"] = {"code": args.code, "qstring": args.qstring}
    return report


def cmd_simulate(args) -> dict:
    book = serialize.book_from_obj(serialize.load_json(args.code))
    message = serialize.qstring_from_obj(serialize.load_json(args.message))
    noise = _noise_from_args(args)
    l_max = args.lmax if args.lmax is not None else max(
        book.max_length, 1)
    report_data = channel.run(message, book, l_max, noise, args.trials)
    return {
        "command": "simulate",
        "config": {"code": args.code, "message": args.message,
                   "lmax": l_max, "trials": args.trials, "seed": args.seed},
        "noise": _noise_obj(noise),
        "trials": report_data.trials,
        "meanFidelity": report_data.mean_fidelity,
        "stdErr": report_data.fidelity_std_err,
        "disentangled": report_data.disentangled,
        "perStep": list(report_data.per_step_error_counts),
    }


def cmd_compare(args) -> dict:
    book_a = serialize.book_from_obj(serialize.load_json(args.bookA))
    book_b = serialize.book_from_obj(serialize.load_json(args.bookB))
    probs = serialize.dist_from_obj(serialize.load_json(args.dist))
    noise = _noise_from_args(args)
    comp = channel.compare_codes(probs, book_a, book_b, noise, args.trials)
    books = []
    for book, res in zip((book_a, book_b), comp.results):
        books.append({"words": [w.text for w in book.words],
                      "successRate": res.success_rate,
                      "stdErr": res.std_err,
                      "analytic": res.analytic})
    return {
        "command": "compare",
        "config": {"bookA": args.bookA, "bookB": args.bookB, "dist": args.dist,
                   "trials": args.trials, "seed": args.seed},
        "noise": _noise_obj(noise),
        "trials": comp.trials,
        "books": books,
    }


def cmd_oracle(args) -> dict:
    ensemble = serialize.ensemble_from_obj(serialize.load_json(args.ensemble))
    result = bruteforce.rate_bruteforce(ensemble)
    order, probs, lengths = result.witness
    return {
        "command": "oracle",
        "config": {"ensemble": args.ensemble},
        "value": result.value,
        "witness": {"order": list(order), "probs": list(probs),
                    "lengths": list(lengths)},
        "searchSpaceSize": result.search_space_size,
    }


def _add_noise_flags(sub) -> None:
    sub.add_argument("--noise", default="none",
                     choices=["none", "bitflip", "phaseflip", "depolarizing"])
    sub.add_argument("--q", type=float, default=0.0)
    sub.add_argument("--schedule", default="constant",
                     choices=["constant", "linear"])
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprefix",
        description="Lossless prefix compression of qubit strings and an "
                    "always-open channel simulator.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="check a basis for prefix-freedom")
    p.add_argument("--basis", required=True)

    p = subs.add_parser("rate", help="build the optimal code for an ensemble")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--all-projections", action="store_true")

    p = subs.add_parser("encode", help="encode an ambient vector")
    p.add_argument("--code", required=True)
    p.add_argument("--vector", required=True)

    p = subs.add_parser("decode", help="decode a qubit string")
    p.add_argument("--code", required=True)
    p.add_argument("--qstring", required=True)

    p = subs.add_parser("simulate", help="run the always-open channel")
    p.add_argument("--code", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--lmax", type=int, default=None)
    _add_noise_flags(p)

    p = subs.add_parser("compare", help="race two code books under noise")
    p.add_argument("--bookA", required=True)
    p.add_argument("--bookB", required=True)
    p.add_argument("--dist", required=True)
    _add_noise_flags(p)

    p = subs.add_parser("oracle", help="brute-force rate cross-check")
    p.add_argument("--ensemble", required=True)

    for sub in subs.choices.values():
        sub.add_argument("--output", default=None,
                         help="also write the JSON report to this path")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up per call, so wrappers bound to the name are called
        report = globals()["cmd_" + args.command](args)
    except ValidationError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        sys.stderr.write(json.dumps({"error": "internal: %s" % exc}) + "\n")
        return 1
    _emit(report, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

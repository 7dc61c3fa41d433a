"""Command-line behavior: outputs, determinism, exit codes."""

import json
import math
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qprefix import (NoiseModel, build_code, channel, cli, codec,
                     compare_codes_bruteforce, prefix)
from qprefix.cli import main
from qprefix.serialize import (book_from_obj, code_to_obj, dist_from_obj,
                               ensemble_from_obj, load_json, round_floats)

FIX = "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_reports_the_chain(capsys):
    code, out, _ = run_cli(capsys, "verify", "--basis",
                           f"{FIX}/superposed_prefix_basis.json")
    assert code == 0
    report = json.loads(out)
    assert report["orthonormal"] and report["prefixFree"]
    assert report["witness"] is None
    assert not report["isClassical"]
    assert report["kraft"] == [0.375, 0.53033008589, 0.5625]


def test_verify_emits_a_witness_for_bad_bases(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vectors": [
        {"terms": [{"bits": "0", "re": 1.0}]},
        {"terms": [{"bits": "01", "re": 1.0}]}]}))
    code, out, _ = run_cli(capsys, "verify", "--basis", str(bad))
    assert code == 0
    report = json.loads(out)
    assert not report["prefixFree"]
    assert report["witness"] == {"phi": 1, "psi": 0, "suffix": "1"}
    assert report["kraft"] is None and report["isClassical"] is None


def _comma_basis(path, words):
    path.write_text(json.dumps({"vectors": [
        {"terms": [{"bits": w, "re": 1.0}]} for w in words]}))
    return str(path)


def test_verify_certifies_a_long_comma_code(capsys, tmp_path):
    # 25 words up to length 24; a scan over every suffix would try 2^25 per pair
    words = ["1" * k + "0" for k in range(24)] + ["1" * 24]
    code, out, _ = run_cli(capsys, "verify", "--basis",
                           _comma_basis(tmp_path / "comma.json", words))
    assert code == 0
    report = json.loads(out)
    assert report["orthonormal"] and report["prefixFree"]
    assert report["witness"] is None and report["isClassical"]
    assert report["kraft"] == [1.0, 1.0, 1.0]  # a full code: the trace term is 1

    spoiled = words + ["1" * 24 + "0"]
    code, out, _ = run_cli(capsys, "verify", "--basis",
                           _comma_basis(tmp_path / "spoiled.json", spoiled))
    assert code == 0
    report = json.loads(out)
    assert not report["prefixFree"]
    assert report["witness"] == {"phi": 25, "psi": 24, "suffix": "0"}


def test_rate_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "rate", "--ensemble", f"{FIX}/four_state.json")
    _, second, _ = run_cli(capsys, "rate", "--ensemble", f"{FIX}/four_state.json")
    assert first == second
    report = json.loads(first)
    assert report["rate"] == 1.6
    assert report["codewords"] == ["0", "10", "11"]
    assert report["projection"]["probs"] == [0.4, 0.1, 0.5]
    assert report["shannon"] == pytest.approx(1.846439344671, abs=1e-9)


def test_rate_can_list_every_projection(capsys):
    code, out, _ = run_cli(capsys, "rate", "--ensemble", f"{FIX}/four_state.json",
                           "--all-projections")
    assert code == 0
    report = json.loads(out)
    assert len(report["projections"]) == 9


def test_rate_writes_the_output_file(capsys, tmp_path):
    path = tmp_path / "code.json"
    code, out, _ = run_cli(capsys, "rate", "--ensemble",
                           f"{FIX}/three_orthogonal.json", "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_encode_then_decode_round_trips(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    run_cli(capsys, "rate", "--ensemble", f"{FIX}/three_orthogonal.json",
            "--output", str(code_path))
    enc_path = tmp_path / "enc.json"
    code, out, _ = run_cli(capsys, "encode", "--code", str(code_path),
                           "--vector", f"{FIX}/vector_one.json",
                           "--output", str(enc_path))
    assert code == 0
    assert json.loads(out)["terms"] == [{"bits": "10", "im": 0.0, "re": 1.0}]
    code, out, _ = run_cli(capsys, "decode", "--code", str(code_path),
                           "--qstring", str(enc_path))
    assert code == 0
    assert json.loads(out)["amps"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]


def test_simulate_reports_fidelity_and_config(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    run_cli(capsys, "rate", "--ensemble", f"{FIX}/three_orthogonal.json",
            "--output", str(code_path))
    code, out, _ = run_cli(capsys, "simulate", "--code", str(code_path),
                           "--message", f"{FIX}/message_plus.json",
                           "--noise", "none", "--q", "0",
                           "--trials", "3", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["meanFidelity"] == 1.0
    assert report["disentangled"] is True
    assert report["perStep"] == [0, 0]
    assert report["noise"]["kind"] == "none"
    assert report["config"]["trials"] == 3


def test_compare_matches_module_results(capsys):
    code, out, _ = run_cli(capsys, "compare",
                           "--bookA", f"{FIX}/book_compressed.json",
                           "--bookB", f"{FIX}/book_fixed.json",
                           "--dist", f"{FIX}/dist_uniform3.json",
                           "--noise", "bitflip", "--q", "0.2",
                           "--trials", "400", "--seed", "11")
    assert code == 0
    report = json.loads(out)
    books = report["books"]
    assert books[0]["words"] == ["0", "10", "11"]
    assert books[0]["analytic"] == pytest.approx(0.693333333333, abs=1e-9)
    assert books[1]["analytic"] == pytest.approx(0.64, abs=1e-9)
    for b in books:
        assert 0.0 <= b["successRate"] <= 1.0


def test_compare_at_a_word_boundary_seed_matches_the_reference(capsys):
    # 2**32 - 1 is the largest one-word seed; the report must equal the
    # one-generator-per-trial reference.
    code, out, _ = run_cli(capsys, "compare",
                           "--bookA", f"{FIX}/book_compressed.json",
                           "--bookB", f"{FIX}/book_fixed.json",
                           "--dist", f"{FIX}/dist_uniform3.json",
                           "--noise", "depolarizing", "--q", "0.3",
                           "--trials", "300", "--seed", "4294967295")
    assert code == 0
    book_a, book_b = (book_from_obj(load_json(f"{FIX}/{name}.json"))
                      for name in ("book_compressed", "book_fixed"))
    probs = dist_from_obj(load_json(f"{FIX}/dist_uniform3.json"))
    ref = compare_codes_bruteforce(probs, book_a, book_b,
                                   NoiseModel("depolarizing", 0.3, seed=4294967295), 300)
    books = json.loads(out)["books"]
    assert [[b["successRate"], b["stdErr"], b["analytic"]] for b in books] == round_floats(
        [[r.success_rate, r.std_err, r.analytic] for r in ref.results])


def test_non_finite_q_exits_2(capsys):
    for argv in (["simulate", "--code", f"{FIX}/book_compressed.json",
                  "--message", f"{FIX}/message_plus.json"],
                 ["compare", "--bookA", f"{FIX}/book_compressed.json",
                  "--bookB", f"{FIX}/book_fixed.json", "--dist", f"{FIX}/dist_uniform3.json"]):
        for schedule in ("linear", "constant"):
            for q in ("nan", "inf", "-inf"):
                code, out, err = run_cli(capsys, *argv, "--noise", "bitflip",
                                         "--schedule", schedule, "--q=" + q,
                                         "--trials", "3")
                assert code == 2 and out == ""
                assert "q" in json.loads(err)["error"]


def test_oracle_reports_the_sweep(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--ensemble", f"{FIX}/four_state.json")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 1.6
    assert report["searchSpaceSize"] == 24
    assert report["witness"]["lengths"] == [1, 2, 2]


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "rate", "--ensemble", "no_such.json")
    assert code == 2
    assert out == ""
    assert "not found" in json.loads(err)["error"]


def test_validation_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 2, "states": [
        {"p": 0.5, "amps": [[1.0, 0.0], [0.0, 0.0]]},
        {"p": 0.6, "amps": [[0.0, 0.0], [1.0, 0.0]]}]}))
    code, _, err = run_cli(capsys, "rate", "--ensemble", str(bad))
    assert code == 2
    assert "error" in json.loads(err)


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_console_entry_point_matches_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "qprefix.cli", "oracle",
                           "--ensemble", f"{FIX}/three_orthogonal.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(5.0 / 3.0, abs=1e-9)


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_nan_distribution_exits_2(capsys, tmp_path):
    dist = _write(tmp_path / "dist.json", {"probs": [float("nan"), 0.5, 0.5]})
    code, out, err = run_cli(capsys, "compare",
                             "--bookA", f"{FIX}/book_compressed.json",
                             "--bookB", f"{FIX}/book_fixed.json",
                             "--dist", dist, "--trials", "10")
    assert code == 2 and out == ""
    assert "finite" in json.loads(err)["error"]


def test_non_numeric_amplitude_exits_2(capsys, tmp_path):
    msg = _write(tmp_path / "msg.json", {"terms": [{"bits": "0", "re": "x"}]})
    code, out, err = run_cli(capsys, "simulate", "--code", f"{FIX}/book_compressed.json",
                             "--message", msg, "--trials", "3")
    assert code == 2 and out == ""
    assert "amplitude" in json.loads(err)["error"]


def test_one_state_entropy_is_positive_zero(capsys, tmp_path):
    ens = _write(tmp_path / "one.json",
                 {"dimension": 2, "states": [{"p": 1.0, "amps": [[1.0, 0.0], [0.0, 0.0]]}]})
    code, out, _ = run_cli(capsys, "rate", "--ensemble", ens)
    assert code == 0
    assert '"shannon": 0.0\n' in out
    assert math.copysign(1.0, json.loads(out)["shannon"]) == 1.0


def test_reusing_the_parser_matches_fresh_processes(capsys, monkeypatch, tmp_path):
    # one process-wide parser: flags set by a call must not leak into the
    # next, and argparse errors and --help must print what a fresh process does
    monkeypatch.setenv("COLUMNS", "80")
    sim = ["simulate", "--code", f"{FIX}/book_compressed.json",
           "--message", f"{FIX}/message_plus.json", "--trials", "40"]
    rate = ["rate", "--ensemble", f"{FIX}/four_state.json"]
    calls = [
        sim + ["--lmax", "4", "--noise", "bitflip", "--q", "0.3", "--output", "{out}"],
        sim,
        rate + ["--all-projections"],
        rate,
        ["verify", "--basis", f"{FIX}/superposed_prefix_basis.json", "--bogus"],
        sim + ["--noise", "loud"],
        [],
        ["--help"],
        ["simulate", "--help"],
        ["verify", "--basis", f"{FIX}/superposed_prefix_basis.json"],
    ]
    reports = []
    for k, argv in enumerate(calls):
        outs = []
        for side in ("inproc", "fresh"):
            out = tmp_path / ("%s%d.json" % (side, k))
            args = [a.replace("{out}", str(out)) for a in argv]
            if side == "inproc":
                code = main(args)
                captured = capsys.readouterr()
                outs.append((code, captured.out, captured.err))
            else:
                proc = subprocess.run([sys.executable, "-m", "qprefix.cli"] + args,
                                      capture_output=True, text=True)
                outs.append((proc.returncode, proc.stdout, proc.stderr))
        assert outs[0] == outs[1], argv
        reports.append(outs[0][1])
    assert (tmp_path / "inproc0.json").read_text() == reports[0]
    assert not (tmp_path / "inproc1.json").exists()
    first, second = json.loads(reports[0]), json.loads(reports[1])
    assert (first["config"]["lmax"], first["noise"]["kind"]) == (4, "bitflip")
    assert (second["config"]["lmax"], second["noise"]["kind"]) == (2, "none")
    assert ["projections" in json.loads(r) for r in reports[2:4]] == [True, False]


def test_main_calls_the_command_bound_at_call_time(capsys, monkeypatch):
    basis = f"{FIX}/superposed_prefix_basis.json"
    assert run_cli(capsys, "verify", "--basis", basis)[0] == 0
    seen = []

    def patched(args):
        seen.append(args.basis)
        return {"command": "verify", "patched": True}

    monkeypatch.setattr(cli, "cmd_verify", patched)
    code, out, _ = run_cli(capsys, "verify", "--basis", basis)
    assert code == 0 and seen == [basis]
    assert json.loads(out) == {"command": "verify", "patched": True}


def test_malformed_loader_inputs_exit_2(capsys, tmp_path):
    code = _four_state_code()
    nan_amp = load_json(f"{FIX}/four_state.json")
    nan_amp["states"][0]["amps"][0][0] = math.nan
    plane = {"dimension": 2, "states": [{"p": 1.0, "amps": [[1.0, 0.0], [0.0, 0.0]]}]}
    vec = f"{FIX}/vector_plus.json"
    msg = f"{FIX}/message_plus.json"
    # each case is (command, flag, input object, further argv)
    cases = [("verify", "--basis", {"vectors": v}, []) for v in (5, None)]
    for dim in ("x", [2], 2.7, 2.0, True, 0):
        for cmd in ("rate", "oracle"):
            cases.append((cmd, "--ensemble", dict(plane, dimension=dim), []))
    cases.append(("rate", "--ensemble", nan_amp, []))
    bad_codes = [dict(code, codewords=5), dict(code, codewords="01"), dict(code, rate="x"),
                 dict(code, projection=dict(code["projection"], groups=5)),
                 dict(code, projection=dict(code["projection"], reps=5)),
                 dict(code, projection=dict(code["projection"], groups=[0, [1], [2]])),
                 dict(code, isometry=[[[math.inf, 0.0]] * 3] * 3),
                 dict(code, isometry=[[[10**400, 0.0]] * 3] * 3)]
    for bad in bad_codes:
        cases.append(("encode", "--code", bad, ["--vector", vec]))
        cases.append(("decode", "--code", bad, ["--qstring", msg]))
    for k, (cmd, flag, obj, rest) in enumerate(cases):
        path = _write(tmp_path / ("in%d.json" % k), obj)
        exit_code, out, err = run_cli(capsys, cmd, flag, path, *rest)
        assert (exit_code, out) == (2, ""), (cmd, obj)
        assert "internal" not in json.loads(err)["error"]
    # the same plane with an integer dimension is accepted
    assert run_cli(capsys, "rate", "--ensemble", _write(tmp_path / "plane.json", plane))[0] == 0


def test_decode_of_an_overflowing_norm_exits_2(capsys, tmp_path):
    # finite amplitudes whose squared norm overflows; on the code words or off them
    code = _write(tmp_path / "code.json", _four_state_code())
    for terms in ([{"bits": "0", "re": 1e308}, {"bits": "10", "re": 1e308}],
                  [{"bits": "10", "re": 1e200}, {"bits": "11", "im": -1e200}],
                  [{"bits": "1", "re": 1e308}]):
        msg = _write(tmp_path / "msg.json", {"terms": terms})
        exit_code, out, err = run_cli(capsys, "decode", "--code", code, "--qstring", msg)
        assert (exit_code, out) == (2, ""), terms
        assert json.loads(err)["error"] == "qubit string norm overflows"
    # a huge norm that does not overflow still decodes
    msg = _write(tmp_path / "msg.json", {"terms": [{"bits": "10", "re": 1e150}]})
    exit_code, out, _ = run_cli(capsys, "decode", "--code", code, "--qstring", msg)
    assert exit_code == 0
    assert json.loads(out)["amps"] == [[0.0, 0.0], [0.0, 0.0], [1e150, 0.0]]


def test_codes_with_duplicate_or_non_prefix_free_words_exit_2(capsys, tmp_path):
    # a duplicate word would let encode keep one of two amplitudes, and a
    # non-prefix-free code would round-trip as if it were lossless
    code = _four_state_code()
    vec = _write(tmp_path / "vec.json", {"amps": [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]]})
    msg = _write(tmp_path / "msg.json", {"terms": [{"bits": "11", "re": 1.0}]})
    for words, error in ((["0", "0", "11"], "duplicate code word '0'"),
                         (["0", "01", "11"], "book is not prefix-free: '0' prefixes '01'")):
        path = _write(tmp_path / "code.json", dict(code, codewords=words))
        for argv in (["encode", "--code", path, "--vector", vec],
                     ["decode", "--code", path, "--qstring", msg]):
            exit_code, out, err = run_cli(capsys, *argv)
            assert (exit_code, out) == (2, ""), argv
            assert json.loads(err)["error"] == error


def test_verify_certifies_each_basis_once(capsys, monkeypatch):
    calls = []
    original = prefix.is_prefix_free

    def counting(vectors):
        calls.append(1)
        return original(vectors)

    monkeypatch.setattr(prefix, "is_prefix_free", counting)
    code, out, _ = run_cli(capsys, "verify", "--basis",
                           f"{FIX}/superposed_prefix_basis.json")
    assert code == 0 and json.loads(out)["prefixFree"]
    assert len(calls) == 1


# Loader fuzz: arbitrary JSON in the book, message and distribution files,
# biased towards almost-valid shapes, must give a report or exit 2.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["0", "10", "0.5", "nan", "1e999", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_bits = st.text("01", max_size=4) | _json
_books = st.fixed_dictionaries({"words": st.lists(_bits, max_size=4)}) | _json
_terms = st.fixed_dictionaries({"bits": _bits}, optional={"re": _json, "im": _json}) | _json
_messages = st.fixed_dictionaries({"terms": st.lists(_terms, max_size=4)}) | _json
_dists = (st.fixed_dictionaries({"probs": st.lists(
    st.sampled_from([0.25, 0.5, "0.25"]) | _json, min_size=3, max_size=3) | _json}) | _json)


@given(_books, _messages, _dists)
def test_loader_fuzz_exits_0_or_2(book, message, dist):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        book, message, dist = (_write(root / name, obj) for name, obj in
                               (("book.json", book), ("msg.json", message),
                                ("dist.json", dist)))
        noise = ["--noise", "depolarizing", "--q", "0.3", "--trials", "3"]
        codes = [
            main(["simulate", "--code", book, "--message", message] + noise),
            main(["simulate", "--code", f"{FIX}/book_compressed.json",
                  "--message", message] + noise),
            main(["compare", "--bookA", book, "--bookB", book, "--dist", dist] + noise),
            main(["compare", "--bookA", f"{FIX}/book_compressed.json",
                  "--bookB", f"{FIX}/book_fixed.json", "--dist", dist] + noise),
        ]
    assert set(codes) <= {0, 2}


# The same fuzz through the ensemble, basis, code, vector and qubit-string
# loaders of verify, rate, oracle, encode and decode.  Each input is a valid
# file with up to two values, at any depth, replaced by fuzz, so most
# examples get past the first check.
_leaves = _json | st.sampled_from([math.nan, math.inf, 1e308, 10**400, True,
                                   2.7, -1, 0, "x", [2], None])


def _paths(obj, path=()):
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(obj, path, value):
    """``obj`` with the value at ``path`` replaced; unchanged if the path is gone."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {k: _replaced(v, rest, value) if k == head else v for k, v in obj.items()}
    if isinstance(obj, list):
        return [_replaced(v, rest, value) if k == head else v for k, v in enumerate(obj)]
    return obj


def _mutants(obj):
    paths = list(_paths(obj))

    def mutate(edits):
        out = obj
        for path, value in edits:
            out = _replaced(out, path, value)
        return out

    return st.lists(st.tuples(st.sampled_from(paths), _leaves), max_size=2).map(mutate)


def _fixture_mutants(name):
    return _mutants(load_json(f"{FIX}/{name}.json"))


def _four_state_code():
    ensemble = ensemble_from_obj(load_json(f"{FIX}/four_state.json"))
    return round_floats(code_to_obj(build_code(ensemble)))


@given(_fixture_mutants("four_state"), _fixture_mutants("superposed_prefix_basis"),
       _mutants(_four_state_code()), _fixture_mutants("vector_plus"),
       _fixture_mutants("message_plus"))
def test_code_loader_fuzz_exits_0_or_2(ensemble, basis, code, vector, message):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        ensemble, basis, code, vector, message = (
            _write(root / name, obj) for name, obj in
            (("ens.json", ensemble), ("basis.json", basis), ("code.json", code),
             ("vec.json", vector), ("msg.json", message)))
        codes = [
            main(["verify", "--basis", basis]),
            main(["rate", "--ensemble", ensemble]),
            main(["oracle", "--ensemble", ensemble]),
            main(["encode", "--code", code, "--vector", vector]),
            main(["decode", "--code", code, "--qstring", message]),
        ]
    assert set(codes) <= {0, 2}


def test_negative_seed_exits_2(capsys):
    for argv in (["simulate", "--code", f"{FIX}/book_compressed.json",
                  "--message", f"{FIX}/message_plus.json"],
                 ["compare", "--bookA", f"{FIX}/book_compressed.json",
                  "--bookB", f"{FIX}/book_fixed.json", "--dist", f"{FIX}/dist_uniform3.json"]):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1", "--trials", "3")
        assert code == 2 and out == ""
        assert "seed" in json.loads(err)["error"]


def test_bit_text_that_int_would_parse_exits_2(capsys, tmp_path):
    for text in ("1_0", " 1", "+1", "0b1", "１"):
        terms = [{"bits": text, "re": 1.0}]
        msg = _write(tmp_path / "msg.json", {"terms": terms})
        basis = _write(tmp_path / "basis.json", {"vectors": [{"terms": terms}]})
        for argv in (["simulate", "--code", f"{FIX}/book_compressed.json",
                      "--message", msg, "--trials", "3"],
                     ["verify", "--basis", basis]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == (
                "bit string text must consist of 0s and 1s: %r" % text)


def test_books_with_64_bit_words_exit_2(capsys, tmp_path):
    words = ["0", "10", "11" + "0" * 62, "11" + "1" * 62]
    book = _write(tmp_path / "book.json", {"words": words})
    dist = _write(tmp_path / "dist.json", {"probs": [0.25] * 4})
    msg = _write(tmp_path / "msg.json", {"terms": [{"bits": "10", "re": 1.0}]})
    for argv in (["simulate", "--code", book, "--message", msg],
                 ["compare", "--bookA", book, "--bookB", book, "--dist", dist]):
        code, out, err = run_cli(capsys, *argv, "--trials", "3")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "l_max must lie in [0, 24]"
    for bad, error in (([words[2], "0", words[2]], "duplicate code word %r" % words[2]),
                       (["0", "1" * 64, "1" * 65],
                        "book is not prefix-free: %r prefixes %r" % ("1" * 64, "1" * 65))):
        book = _write(tmp_path / "bad.json", {"words": bad})
        code, out, err = run_cli(capsys, "simulate", "--code", book, "--message", msg)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error


def test_trial_counts_above_the_cap_exit_2(capsys):
    # the cap is checked before the message is loaded into rows or any
    # symbol is drawn, so an absurd count fails at once
    trials = str(channel.MAX_TRIALS + 1)
    for argv in (["simulate", "--code", f"{FIX}/book_compressed.json",
                  "--message", f"{FIX}/message_plus.json"],
                 ["compare", "--bookA", f"{FIX}/book_compressed.json",
                  "--bookB", f"{FIX}/book_fixed.json", "--dist", f"{FIX}/dist_uniform3.json"]):
        code, out, err = run_cli(capsys, *argv, "--trials", trials)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "at most %d trials are allowed" % channel.MAX_TRIALS


def test_rate_above_the_state_cap_exits_2(capsys, tmp_path):
    n = codec.MAX_STATES + 1
    states = [{"p": 1.0 / n, "amps": [[float(i == j), 0.0] for j in range(n)]}
              for i in range(n)]
    ens = _write(tmp_path / "big.json", {"dimension": n, "states": states})
    code, out, err = run_cli(capsys, "rate", "--ensemble", ens)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ensemble has 21 states, above the state cap of 20"


def test_simulate_above_the_support_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(channel, "MAX_SUPPORT", 1)
    code, out, err = run_cli(capsys, "simulate", "--code", f"{FIX}/book_compressed.json",
                             "--message", f"{FIX}/message_plus.json", "--trials", "3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "joint support exceeds 1 configurations"

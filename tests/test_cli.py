"""Command-line behavior: outputs, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from qprefix.cli import main

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

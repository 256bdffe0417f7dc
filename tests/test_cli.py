"""Command-line behaviour: stable output, exit codes, emitted files."""

import hashlib
import json

import pytest

from parashake import planner, treeio
from parashake.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hash_empty_single(capsys):
    code, out, _ = run_cli(capsys, "hash", "--hex", "", "--strategy",
                           "single")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["digest"].startswith("46b9dd2b0ba88d13233b3feb")
    assert lines["depth"] == "1"
    assert lines["processors"] == "1"


def test_hash_single_matches_hashlib(capsys, rng):
    data = rng.randbytes(300)
    code, out, _ = run_cli(capsys, "hash", "--hex", data.hex(),
                           "--strategy", "single")
    assert code == 0
    digest = out.splitlines()[0].split(": ")[1]
    assert digest == hashlib.shake_256(data).hexdigest(64)


def test_hash_is_deterministic(capsys):
    args = ("hash", "--hex", "a3" * 100, "--strategy", "ternary")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_hash_ternary_report(capsys, tmp_path):
    data = bytes(3683)  # 29464 bits, a touch over the figure's message
    path = tmp_path / "msg.bin"
    path.write_bytes(data)
    code, out, _ = run_cli(capsys, "hash", "--in", str(path), "--strategy",
                           "ternary", "--bits", "1")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["message-bits"] == "29457"
    assert lines["depth"] == "4"
    assert lines["processors"] == "27"
    assert lines["strategy"] == "ternary"


def test_hash_bit_truncation(capsys):
    # --bits keeps the low-order bits of the last byte
    code, out, _ = run_cli(capsys, "hash", "--hex", "ff", "--bits", "3",
                           "--strategy", "single")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["message-bits"] == "3"
    with_bits = lines["digest"]
    code, out, _ = run_cli(capsys, "hash", "--hex", "07", "--bits", "3",
                           "--strategy", "single")
    assert dict(line.split(": ", 1)
                for line in out.strip().splitlines())["digest"] == with_bits


def test_hash_rejects_bad_bits(capsys):
    code, _, err = run_cli(capsys, "hash", "--hex", "", "--bits", "3")
    assert code == 2
    assert "error" in err


def test_plan_stdout_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "plan", "--size-bits", "3273",
                           "--strategy", "ternary")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 3
    assert treeio.dump_plan(treeio.load_plan(out)) == out


def test_plan_emit_and_analyze(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    code, out, _ = run_cli(capsys, "plan", "--size-bits", "29457",
                           "--strategy", "compacted", "--emit-tree",
                           str(plan_path))
    assert code == 0
    assert "node-count: 27" in out
    code, out, _ = run_cli(capsys, "analyze", "--plan", str(plan_path))
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["depth"] == "4"
    assert lines["stalls"] == "0"
    assert lines["happens-before"] == "ok"


def test_analyze_emits_schedule(capsys, tmp_path):
    sched_path = tmp_path / "sched.json"
    code, out, _ = run_cli(capsys, "analyze", "--size-bits", "29457",
                           "--strategy", "ternary", "--emit-schedule",
                           str(sched_path))
    assert code == 0
    doc = json.loads(sched_path.read_text())
    assert doc["depth"] == 4 and doc["processors"] == 27


def test_analyze_rejects_corrupted_plan(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "plan", "--size-bits", "9819",
                           "--strategy", "ternary")
    doc = json.loads(out)
    # point a chaining-value slot of the final node at the final node
    final = doc["nodes"][-1]
    for seg in final["segments"]:
        if seg["kind"] == "cv":
            seg["producer"] = final["id"]
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "analyze", "--plan", str(bad))
    assert code == 1
    assert "plan-valid: no" in out


def test_selftest_quick(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 0
    assert "suites: 7 passed, 0 failed" in out


def test_selftest_corrupted_vectors(capsys, tmp_path):
    bad = tmp_path / "vectors.json"
    bad.write_text(json.dumps([{"message_hex": "", "message_bit_length": 0,
                                "out_len_bits": 256,
                                "digest_hex": "00" * 32}]))
    code, out, _ = run_cli(capsys, "selftest", "--quick", "--vectors",
                           str(bad))
    assert code == 1
    assert "shake-vectors: FAIL" in out
    # the other suites still ran and passed
    assert out.count("PASS") == 6


def test_missing_file_is_reported(capsys):
    code, _, err = run_cli(capsys, "hash", "--in", "/nonexistent/xyz")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("hexstr", ["zz", "abc", "0g"])
def test_bad_hex_is_reported(capsys, hexstr):
    code, out, err = run_cli(capsys, "hash", "--hex", hexstr)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _plan_doc(mutate) -> str:
    doc = json.loads(treeio.dump_plan(planner.plan("ternary", 9819)))
    mutate(doc)
    return json.dumps(doc)


def _string_length(doc):
    row = next(h for h in doc["hops"] if h["kind"] == "message")
    row["length_bits"] = str(row["length_bits"])


@pytest.mark.parametrize("make_text", [
    lambda: "not json",
    lambda: "[]",
    lambda: '{"schema": "sakura-plan/1", "message_bits": 5}',
    lambda: _plan_doc(lambda doc: doc["nodes"][0].pop("segments")),
    lambda: _plan_doc(lambda doc: doc.update(nodes="x")),
    lambda: _plan_doc(_string_length),
], ids=["not-json", "list", "no-hops", "no-segments", "nodes-string",
        "string-length"])
def test_malformed_plan_is_reported(capsys, tmp_path, make_text):
    path = tmp_path / "plan.json"
    path.write_text(make_text())
    code, out, err = run_cli(capsys, "analyze", "--plan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")

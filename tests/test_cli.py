"""Command-line behaviour: stable output, exit codes, emitted files."""

import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parashake
from parashake import keccak, planner, scheduler, treeio
from parashake.bits import BitString
from parashake.cli import main
from parashake.evaluate import evaluate_sequential


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


@pytest.mark.parametrize("strategy", ("auto",) + planner.STRATEGIES)
def test_hash_matches_the_oracle(capsys, tmp_path, monkeypatch, rng,
                                 strategy):
    # `hash` runs the schedule executor on the one schedule it simulates;
    # its digest and call count are the sequential oracle's
    source = rng.randbytes(12500)
    simulated = []
    original = scheduler.simulate

    def counted(*args):
        simulated.append(args)
        return original(*args)

    monkeypatch.setattr(scheduler, "simulate", counted)
    sched_path = tmp_path / "sched.json"
    for n in (0, 1, 2170, 2171, 3275, 29457, 10 ** 5):
        data = source[:(n + 7) // 8]
        tree = planner.plan(strategy, n).node_tree
        for out_bits in (256, 512, 4096):
            del simulated[:]
            code, out, err = run_cli(
                capsys, "hash", "--hex", data.hex(), "--bits", str(n % 8),
                "--strategy", strategy, "--out-bits", str(out_bits),
                "--emit-schedule", str(sched_path))
            assert (code, err, len(simulated)) == (0, "", 1), (n, out_bits)
            lines = dict(line.split(": ", 1) for line in out.splitlines())
            want = evaluate_sequential(tree, BitString.from_bytes(data, n),
                                       out_bits)
            assert lines["digest"] == want.hex(), (n, out_bits)
            assert lines["total-calls"] == str(want.total_calls)
            assert sched_path.read_text() == treeio.dump_schedule(
                original(tree, out_bits))


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
    assert doc["report"]["node_count"] == 3
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
    # shift the first message hop by one bit: the rebuilt node tree then
    # leaves a gap in the message
    row = next(h for h in doc["hops"] if h["kind"] == "message")
    row["offset_bits"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "analyze", "--plan", str(bad))
    assert code == 1
    assert out == "plan-valid: no (message gap or overlap at bit 0)\n"


def test_selftest_quick(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 0
    assert "suites: 9 passed, 0 failed" in out


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
    assert out.count("PASS") == 8


@pytest.mark.parametrize("entry", [
    {"message_hex": 5},
    {"message_hex": "zz"},
    {"message_bit_length": 99},
    {"out_len_bits": -8},
], ids=["hex-int", "hex-zz", "bit-length-99", "out-bits-negative"])
def test_malformed_vectors_are_reported(capsys, tmp_path, entry):
    bad = tmp_path / "vectors.json"
    bad.write_text(json.dumps([dict(
        {"message_hex": "ab", "message_bit_length": 8, "out_len_bits": 256,
         "digest_hex": "00" * 32}, **entry)]))
    code, out, err = run_cli(capsys, "selftest", "--quick", "--vectors",
                             str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_file_is_reported(capsys):
    code, _, err = run_cli(capsys, "hash", "--in", "/nonexistent/xyz")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("hash", "--hex", "00", "--emit-tree"),
    ("hash", "--hex", "00", "--emit-schedule"),
    ("analyze", "--size-bits", "100000", "--emit-schedule"),
])
def test_unwritable_emit_path_prints_no_report(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv,
                             str(tmp_path / "missing" / "x"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def _message_field(key, convert):
    def mutate(doc):
        row = next(h for h in doc["hops"] if h["kind"] == "message")
        row[key] = convert(row[key])
    return mutate


def _string_node_count(doc):
    doc["report"]["node_count"] = str(doc["report"]["node_count"])


def _chaining_field(key, value):
    def mutate(doc):
        row = next(h for h in doc["hops"] if h["kind"] == "chaining")
        row[key] = value
    return mutate


def _index(old, new):
    def mutate(doc):
        next(h for h in doc["hops"] if h["index"] == old)["index"] = new
    return mutate


def _report_field(key, value):
    return lambda doc: doc["report"].update({key: value})


@pytest.mark.parametrize("make_text", [
    lambda: "not json",
    lambda: "[]",
    lambda: '{"schema": "sakura-plan/2", "message_bits": 5}',
    lambda: _plan_doc(lambda doc: doc.update(hops="x")),
    lambda: _plan_doc(_string_node_count),
    lambda: _plan_doc(_message_field("length_bits", str)),
    lambda: _plan_doc(_chaining_field("aligned", "yes")),
    lambda: _plan_doc(_chaining_field("aligned", 1)),
    lambda: _plan_doc(_chaining_field("aligned", 0)),
    lambda: _plan_doc(_chaining_field("kangaroo_first_child", "no")),
    lambda: _plan_doc(lambda doc: doc.update(message_bits=9819.0)),
    lambda: _plan_doc(_report_field("message_bits", 9819.0)),
    lambda: _plan_doc(_message_field("offset_bits", float)),
    lambda: _plan_doc(_message_field("length_bits", float)),
    lambda: _plan_doc(_index([1], [True])),
    lambda: _plan_doc(_index([], {})),
    lambda: _plan_doc(_report_field("node_count", 9.0)),
    lambda: _plan_doc(_report_field("predicted_depth", "x")),
    lambda: _plan_doc(lambda doc: doc.update(schema="sakura-plan/1",
                                             nodes=[])),
], ids=["not-json", "list", "no-hops", "hops-string", "node-count-string",
        "string-length", "aligned-string", "aligned-1", "aligned-0",
        "kangaroo-string", "message-bits-float", "report-message-bits-float",
        "offset-float", "length-float", "index-true", "index-object",
        "node-count-float", "predicted-depth-string", "schema-1"])
def test_malformed_plan_is_reported(capsys, tmp_path, make_text):
    path = tmp_path / "plan.json"
    path.write_text(make_text())
    code, out, err = run_cli(capsys, "analyze", "--plan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["analyze", "--plan"],
    ["selftest", "--quick", "--vectors"],
], ids=["analyze", "selftest"])
def test_non_utf8_file_is_reported(capsys, tmp_path, command):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00garbage")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


_LIMITED_CLI = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from parashake.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_oversized_plan_is_reported(tmp_path):
    # a 10^13-bit single node has 9.2e9 rate blocks; the simulator's
    # per-block list cannot be allocated under a 1 GiB address-space limit
    huge = 10 ** 13
    doc = json.loads(treeio.dump_plan(planner.plan("single", 5000)))
    doc["message_bits"] = doc["report"]["message_bits"] = huge
    doc["hops"][0]["length_bits"] = huge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(parashake.__file__).parents[1]))
    for argv in (["analyze", "--size-bits", str(huge), "--strategy",
                  "single"],
                 ["analyze", "--plan", str(path)]):
        done = subprocess.run([sys.executable, "-c", _LIMITED_CLI] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: out of memory\n"), argv


def test_oversized_output_is_reported():
    # 10^14 output bits are 12.5 TB; the output buffer is allocated before
    # the first squeeze, so this fails at once instead of squeezing for ever
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(parashake.__file__).parents[1]))
    argv = ["hash", "--hex", "00", "--out-bits", "99999999999999"]
    done = subprocess.run([sys.executable, "-c", _LIMITED_CLI] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: out of memory\n")


def test_deep_plan_is_reported(capsys, tmp_path):
    # each chaining hop has children [next hop, message hop]
    depth = 1500
    hops = []
    for d in range(depth):
        index = [0] * d
        hops.append({"index": index, "kind": "chaining",
                     "kangaroo_first_child": True, "aligned": False,
                     "child_count": 2})
        hops.append({"index": index + [1], "kind": "message",
                     "offset_bits": d + 1, "length_bits": 1})
    hops.append({"index": [0] * depth, "kind": "message",
                 "offset_bits": 0, "length_bits": 1})
    report = {"strategy": "ternary", "model_id": None,
              "message_bits": depth + 1, "predicted_depth": 1,
              "predicted_processors": 1, "tree_height": depth,
              "node_count": depth + 1}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"schema": "sakura-plan/2",
                                "compaction": "aligned",
                                "message_bits": depth + 1,
                                "report": report, "hops": hops}))
    code, out, err = run_cli(capsys, "analyze", "--plan", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: hop tree nests too deeply\n"


@pytest.mark.parametrize("out_bits", ["0", "-1"])
def test_hash_rejects_bad_out_bits_before_hashing(monkeypatch, capsys,
                                                  out_bits):
    def no_permutations(*args):
        raise AssertionError("permutation run before out_bits was checked")
    monkeypatch.setattr(keccak, "absorb_blocks", no_permutations)
    monkeypatch.setattr(keccak, "permute", no_permutations)
    code, out, err = run_cli(capsys, "hash", "--hex", "ab" * 4000,
                             "--out-bits", out_bits)
    assert code == 2
    assert out == ""
    assert err == "error: output length must be positive\n"


@pytest.mark.parametrize("out_bits", ["0", "-1", "-7000"])
def test_analyze_rejects_bad_out_bits(capsys, tmp_path, out_bits):
    sched_path = tmp_path / "sched.json"
    code, out, err = run_cli(capsys, "analyze", "--size-bits", "100",
                             "--out-bits", out_bits, "--emit-schedule",
                             str(sched_path))
    assert code == 2
    assert out == ""
    assert err == "error: output length must be positive\n"
    assert not sched_path.exists()


_FUZZ_DOC = json.loads(treeio.dump_plan(planner.plan("ternary", 9819)))


def _json_paths(value, path=()):
    """Yield (path, value) for every value nested in a JSON value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _json_paths(child, path + (key,))


_PATHS = list(_json_paths(_FUZZ_DOC))
_KEY_PATHS = [p for p, _ in _PATHS if isinstance(p[-1], str)]
_INT_PATHS = [p for p, v in _PATHS
              if p[0] in ("hops", "report") and type(v) is int]
_SAMPLES = (None, True, 7, 2.5, "x", [], {})


@st.composite
def _mutated_plans(draw):
    doc = copy.deepcopy(_FUZZ_DOC)
    kind = draw(st.sampled_from(["delete", "retype", "integer"]))
    paths = {"delete": _KEY_PATHS, "retype": [p for p, _ in _PATHS],
             "integer": _INT_PATHS}[kind]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in _SAMPLES if type(v) is not type(old)]))
    else:
        parent[path[-1]] = draw(st.integers().filter(lambda v: v != old))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_mutated_plans())
def test_mutated_plan_never_escapes(capsys, tmp_path, text):
    path = tmp_path / "plan.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "analyze", "--plan", str(path))
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error: ")
    if code != 2:
        # a document that loads is canonical: it dumps back unchanged
        canonical = json.dumps(json.loads(text), indent=2,
                               sort_keys=True) + "\n"
        assert treeio.dump_plan(treeio.load_plan(text)) == canonical


# Each subcommand's options; one listed twice is drawn twice as often, and
# "junk" is a token from anywhere.  Numbers stay at or below 8192: an `--out-bits` is
# a buffer that `squeeze` fills whole, and a `--size-bits` a plan.
# Messages stay under 40 bytes.  `selftest` is left out, because a
# well-formed call runs every suite.
_OPTIONS = {
    "hash": ["--bits", "--strategy", "--strategy", "--out-bits",
             "--emit-tree", "--emit-schedule"],
    "plan": ["--bits", "--size-bits", "--size-bits", "--strategy",
             "--emit-tree"],
    "analyze": ["--bits", "--plan", "--plan", "--size-bits", "--strategy",
                "--out-bits", "--emit-schedule"],
}
_JUNK = st.sampled_from(["", "-", "--", "x", "1.5", "-1", "auto", "bogus",
                         "--bogus", "-h", "--help", "--vectors", "--quick",
                         "--size-bits", "--plan", "--emit-tree"])


@st.composite
def _argvs(draw, inputs, outputs):
    read, write = st.sampled_from(inputs), st.sampled_from(outputs)
    values = {
        "--in": read, "--plan": read,
        "--emit-tree": write, "--emit-schedule": write,
        "--hex": st.one_of(st.binary(max_size=40).map(bytes.hex),
                           st.binary(max_size=40).map(bytes.hex),
                           st.sampled_from(["zz", "abc", "0x00", "-1"])),
        "--bits": st.integers(-1, 8),
        "--out-bits": st.integers(-2, 8192),
        "--size-bits": st.integers(-2, 8192),
        "--strategy": st.sampled_from(("auto", "bogus")
                                      + planner.STRATEGIES),
    }
    command = draw(st.sampled_from(["hash", "hash", "hash", "plan", "plan",
                                    "analyze", "analyze", "bogus"]))
    argv = [command]
    for source in draw(st.sampled_from([["--hex"]] * 4 + [
            ["--in"], ["--in"], ["--in", "--hex"], []])):
        argv += [source, str(draw(values[source]))]
    for _ in range(draw(st.integers(0, 4))):
        token = draw(st.sampled_from(_OPTIONS.get(command, []) + ["junk"]))
        if token == "junk":
            argv.append(draw(_JUNK))
            continue
        argv.append(token)
        if draw(st.integers(0, 19)):         # now and then no value
            argv.append(str(draw(values[token])))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_never_escapes(capsys, tmp_path, data):
    plan = tmp_path / "plan.json"
    if not plan.exists():
        plan.write_text(treeio.dump_plan(planner.plan("ternary", 9819)))
        (tmp_path / "garbage.bin").write_bytes(b"\xff\xfe\x00garbage")
        (tmp_path / "message.bin").write_bytes(bytes(range(40)))
    inputs = [str(tmp_path / name) for name in
              ("plan.json", "garbage.bin", "message.bin", "missing", "")]
    outputs = [str(tmp_path / name) for name in ("out", "missing/out", "")]
    argv = data.draw(_argvs(inputs, outputs))
    try:
        code = main(argv)
    except SystemExit as exc:            # argparse: usage error or --help
        code = exc.code
    _, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    has_error = any(line.startswith("error: ") or ": error: " in line
                    for line in err.splitlines())
    assert has_error == (code == 2), (argv, err)

"""Command-line front end.

Subcommands: hash (digest a message under a chosen strategy), plan
(emit the plan document without evaluating), analyze (simulate a plan
and report scheduling metrics), selftest (run the built-in suites).
Output is line-oriented and stable: identical inputs and flags produce
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import sys

from . import evaluate, planner, scheduler, selftest, treeio
from .bits import BitString
from .errors import TreeHashError
# Unused here; perfbench/tracer.py wraps this binding and fails without it.
from .evaluate import evaluate_sequential  # noqa: F401
from .sakura import validate_node_tree


def _add_input_args(p: argparse.ArgumentParser, required: bool):
    """Add the message sources and `--bits`; returns the sources' group."""
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--in", dest="infile", metavar="FILE",
                       help="read the message from a file")
    group.add_argument("--hex", dest="hexstr", metavar="HEX",
                       help="message as a hex byte string")
    p.add_argument("--bits", type=int, metavar="N",
                   help="keep only the N low-order bits of the last byte "
                        "(1..7; 0 keeps the whole byte)")
    return group


def _read_message(args) -> BitString:
    if args.infile is not None:
        with open(args.infile, "rb") as f:
            data = f.read()
    elif args.hexstr is not None:
        try:
            data = bytes.fromhex(args.hexstr)
        except ValueError as exc:
            raise TreeHashError("--hex: %s" % exc) from None
    else:
        raise TreeHashError("no input given")
    bits = args.bits or 0
    if not 0 <= bits <= 7:
        raise TreeHashError("--bits must be in 0..7")
    if bits and not data:
        raise TreeHashError("--bits needs a non-empty message")
    length = 8 * len(data) - (8 - bits if bits else 0)
    return BitString.from_bytes(data, length)


def _emit(path: str | None, dump, obj) -> None:
    """Write `dump(obj)` to `path`; render nothing when no path is given."""
    if path:
        text = dump(obj)
        with open(path, "w") as f:
            f.write(text)


def _print_report(plan) -> None:
    r = plan.report
    print("strategy: %s" % r.strategy)
    print("model-id: %s" % ("-" if r.model_id is None else r.model_id))
    print("message-bits: %d" % r.message_bits)
    print("tree-height: %d" % r.tree_height)
    print("node-count: %d" % r.node_count)
    print("predicted-depth: %d" % r.predicted_depth)
    print("predicted-processors: %d" % r.predicted_processors)


def cmd_hash(args) -> int:
    message = _read_message(args)
    plan = planner.plan(args.strategy, len(message))
    sched = scheduler.simulate(plan.node_tree, args.out_bits)
    digest = evaluate.evaluate_parallel(plan.node_tree, message,
                                        args.out_bits, schedule=sched)
    _emit(args.emit_tree, treeio.dump_plan, plan)
    _emit(args.emit_schedule, treeio.dump_schedule, sched)
    print("digest: %s" % digest.hex())
    print("out-bits: %d" % args.out_bits)
    _print_report(plan)
    print("depth: %d" % sched.depth)
    print("processors: %d" % sched.processors)
    print("total-calls: %d" % digest.total_calls)
    return 0


def _reject_ignored(args, source: str, flags) -> None:
    """A usage error for any of `flags` given next to `source`, which
    would ignore it."""
    for flag in flags:
        if getattr(args, flag[2:]) is not None:
            args.parser.error("argument %s: not allowed with argument %s"
                              % (flag, source))


def _plan_size(args) -> int:
    if args.size_bits is not None:
        _reject_ignored(args, "--size-bits", ["--bits"])
        if args.size_bits < 0:
            raise TreeHashError("--size-bits must be non-negative")
        return args.size_bits
    return len(_read_message(args))


def cmd_plan(args) -> int:
    n = _plan_size(args)
    plan = planner.plan(args.strategy, n)
    if args.emit_tree:
        _emit(args.emit_tree, treeio.dump_plan, plan)
        _print_report(plan)
    else:
        sys.stdout.write(treeio.dump_plan(plan))
    return 0


def cmd_analyze(args) -> int:
    if args.plan is not None:
        _reject_ignored(args, "--plan", ["--bits", "--strategy"])
        with open(args.plan, "rb") as f:
            plan = treeio.load_plan(f.read())
    else:
        plan = planner.plan(args.strategy or "auto", _plan_size(args))
    ok, why = validate_node_tree(plan.node_tree)
    if not ok:
        print("plan-valid: no (%s)" % why)
        return 1
    sched = scheduler.simulate(plan.node_tree, args.out_bits)
    happens_before = scheduler.validate_happens_before(sched, plan.node_tree)
    _emit(args.emit_schedule, treeio.dump_schedule, sched)
    print("plan-valid: yes")
    print("depth: %d" % sched.depth)
    print("processors: %d" % sched.processors)
    print("max-concurrency: %d" % sched.max_concurrency)
    print("total-calls: %d" % sched.total_calls)
    print("stalls: %d" % sched.total_stalls)
    print("happens-before: %s" % ("ok" if happens_before else "VIOLATED"))
    return 0 if happens_before else 1


def cmd_selftest(args) -> int:
    vectors = None
    if args.vectors:
        with open(args.vectors, "rb") as f:
            vectors = treeio.load_vectors(f.read())
    results = selftest.run_all(quick=args.quick, vectors=vectors)
    failures = 0
    for name, ok, detail in results:
        print("%s: %s (%s)" % (name, "PASS" if ok else "FAIL", detail))
        failures += 0 if ok else 1
    print("suites: %d passed, %d failed" % (len(results) - failures,
                                            failures))
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parashake",
        description="Parallel SHAKE256 tree hashing with Sakura-coded "
                    "nodes over Keccak-f[1600].")
    sub = parser.add_subparsers(dest="command", required=True)

    strategies = ("auto",) + planner.STRATEGIES

    p = sub.add_parser("hash", help="hash a message")
    _add_input_args(p, required=True)
    p.add_argument("--strategy", choices=strategies, default="auto")
    p.add_argument("--out-bits", type=int, default=512)
    p.add_argument("--emit-tree", metavar="PATH")
    p.add_argument("--emit-schedule", metavar="PATH")
    p.set_defaults(fn=cmd_hash)

    p = sub.add_parser("plan", help="emit a plan document without hashing")
    source = _add_input_args(p, required=False)
    source.add_argument("--size-bits", type=int, metavar="N",
                        help="plan for an N-bit message, reading none")
    p.add_argument("--strategy", choices=strategies, default="auto")
    p.add_argument("--emit-tree", metavar="PATH",
                   help="write the document here instead of stdout")
    p.set_defaults(fn=cmd_plan, parser=p)

    p = sub.add_parser("analyze", help="simulate a plan and print metrics")
    source = _add_input_args(p, required=False)
    source.add_argument("--plan", metavar="PATH", help="plan document to load")
    source.add_argument("--size-bits", type=int, metavar="N")
    p.add_argument("--strategy", choices=strategies)
    p.add_argument("--out-bits", type=int, default=512)
    p.add_argument("--emit-schedule", metavar="PATH")
    p.set_defaults(fn=cmd_analyze, parser=p)

    p = sub.add_parser("selftest", help="run the built-in suites")
    p.add_argument("--quick", action="store_true",
                   help="reduced ranges, under a minute")
    p.add_argument("--vectors", metavar="PATH",
                   help="alternative SHAKE256 vector file")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TreeHashError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):     # a size no index can hold
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

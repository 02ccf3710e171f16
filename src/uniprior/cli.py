"""Command-line front-end.

Exit codes: 0 success, 1 invalid instance or arguments, 2 verification
failed, 3 cap exceeded or partial result.
"""

from __future__ import annotations

import argparse
import sys

from . import graph, multi, single
from .codes import (CapExceededError, LinearIndexCode, MalformedCodeError, json_text,
                    load_code, oracle_min_linear, serialize_code, verify_linear)
from .instance import Instance, ParseError, load_instance, validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    def __init__(self, message: str, status: int = EXIT_INVALID):
        super().__init__(message)
        self.status = status


def _printable(message) -> str:
    """message with each lone surrogate (a JSON "\\ud800" escape, or a
    file-name byte that is not UTF-8) as a backslash escape, so that a
    UTF-8 stream can write it."""
    return str(message).encode("utf-8", "backslashreplace").decode("utf-8")


def _emit_json(doc: dict) -> None:
    print(json_text(doc))


def _code_lines(code: LinearIndexCode) -> list[str]:
    return [f"  {k}. {'^'.join(f'x{m}[{b}]' for (m, b) in s.terms)}  (sender {s.sender})"
            for k, s in enumerate(code.symbols, start=1)]


def _read(load, path: str):
    """load(path), with a read or parse error as a CliError naming path."""
    try:
        return load(path)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    except ParseError as e:
        raise CliError(f"{path}: {e}") from e


def _load_valid_instance(path: str) -> Instance:
    inst = _read(load_instance, path)
    report = validate(inst)
    if not report.ok:
        raise CliError(f"{path}: invalid instance:\n  " + "\n  ".join(report.violations))
    return inst


# ------------------------------------------------------------- commands

def _cmd_validate(args) -> int:
    try:
        inst = load_instance(args.instance)
    except (OSError, ParseError) as e:
        if args.format == "json":
            _emit_json({"command": "validate", "ok": False, "violations": [str(e)],
                        "notes": []})
        else:
            print(f"INVALID: {_printable(e)}")
        return EXIT_INVALID
    report = validate(inst)
    if args.format == "json":
        _emit_json({"command": "validate", "ok": report.ok,
                    "violations": report.violations, "notes": report.notes})
    else:
        for note in report.notes:
            print(f"note: {note}")
        if report.ok:
            print(f"VALID: n={inst.n}, {len(inst.arcs)} arcs, {len(inst.senders)} sender(s)")
        else:
            for v in report.violations:
                print(f"violation: {v}")
            print("INVALID")
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_solve(args) -> int:
    inst = _load_valid_instance(args.instance)
    try:
        sol = single.solve_single(inst)
    except single.NotSingleSenderError as e:
        raise CliError(f"{e}; use the bound command for multi-sender instances") from e
    total, leaf_w, scc_min = sol.arithmetic
    if args.format == "json":
        _emit_json({"command": "solve", "optimal_length": sol.optimal_length,
                    "lower_bound": sol.lower_bound,
                    "arithmetic": {"total": total, "leaf_weight": leaf_w,
                                   "scc_min_sum": scc_min},
                    "code": sol.code, "trace": sol.trace})
    else:
        print(f"optimal codelength = {total} - {leaf_w} - {scc_min} = {sol.optimal_length}")
        print(f"code ({len(sol.code)} symbols):")
        for line in _code_lines(sol.code):
            print(line)
        for st in sol.trace.steps:
            print(f"prune: leaf SCC {sorted(st.scc)}, vertex {st.vertex}, "
                  f"removed {[list(a) for a in st.removed_arcs]}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    inst = _load_valid_instance(args.instance)
    report = multi.bound_multi(inst, exhaustive=args.exhaustive,
                               max_states=args.max_states or 10 ** 6)
    partial = ((report.exhaustive is not None and not report.exhaustive.exact)
               or not report.trees_exact)
    lr = report.lower_report
    if args.format == "json":
        _emit_json({"command": "bound", "lower": report.lower, "upper": report.upper,
                    "tight": report.tight,
                    "tight_reason": report.tight_reason,
                    "lower_report": lr, "exhaustive": report.exhaustive,
                    "trees": report.trees, "trees_exact": report.trees_exact,
                    "code": report.code, "partial": partial})
    else:
        print(f"lower = V_out - (connected + I) = {lr.v_out_original} - "
              f"({lr.connected_count} + {lr.iterations}) = {lr.bound}")
        if report.exhaustive is not None:
            tag = "complete" if report.exhaustive.exact else "partial"
            print(f"exhaustive lower = {report.exhaustive.bound} ({tag}, "
                  f"{report.exhaustive.states_visited} states)")
        print(f"upper = V_out - (connected + trees) = {lr.v_out_original} - "
              f"({lr.connected_count} + {len(report.trees)}) = {report.upper}")
        print(f"tight = {'yes' if report.tight else 'no'}"
              + (f" ({report.tight_reason.value})" if report.tight_reason else ""))
        print(f"code ({len(report.code)} symbols):")
        for line in _code_lines(report.code):
            print(line)
    return EXIT_PARTIAL if partial else EXIT_OK


def _cmd_encode(args) -> int:
    inst = _load_valid_instance(args.instance)
    if len(inst.senders) == 1:
        code = single.encode_single(graph.WorkGraph.from_instance(inst))
    else:
        code = multi.encode_multi(inst, multi.find_connecting_trees(inst).trees)
    try:
        with open(args.output, "w") as f:
            f.write(serialize_code(code))
    except OSError as e:
        raise CliError(f"cannot write {args.output}: {e}") from e
    if args.format == "json":
        _emit_json({"command": "encode", "output": args.output, "length": len(code),
                    "code": code})
    else:
        print(f"wrote {args.output} ({len(code)} symbols)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load_valid_instance(args.instance)
    code = _read(load_code, args.code)
    try:
        report = verify_linear(inst, code)
    except MalformedCodeError as e:
        raise CliError(f"malformed code: {e}") from e
    if args.format == "json":
        _emit_json({"command": "verify", "valid": report.valid,
                    "failures": [{"receiver": r, "message": m, "bit": b}
                                 for (r, (m, b)) in report.failures]})
    else:
        if report.valid:
            print("VALID: every receiver decodes all wanted bits")
        else:
            for (r, (m, b)) in report.failures:
                print(f"INVALID: receiver {r} cannot decode x{m}[{b}]")
    return EXIT_OK if report.valid else EXIT_VERIFY_FAILED


def _cmd_oracle(args) -> int:
    inst = _load_valid_instance(args.instance)
    try:
        res = oracle_min_linear(inst, max_len=args.max_len, max_bits=args.max_bits,
                                max_nodes=args.max_nodes)
    except CapExceededError as e:
        raise CliError(str(e), status=EXIT_PARTIAL) from e
    label = "optimum" if len(inst.senders) == 1 else "linear optimum"
    if args.format == "json":
        _emit_json({"command": "oracle", "label": label, "length": res.length,
                    "exact": res.exact, "note": res.note, "code": res.code})
    else:
        star = "" if res.exact else " (upper bound only; search capped)"
        print(f"{label} = {res.length}{star}")
        if res.note:
            print(f"note: {res.note}")
        for line in _code_lines(res.code):
            print(line)
    return EXIT_OK if res.exact else EXIT_PARTIAL


def _cmd_trace(args) -> int:
    inst = _load_valid_instance(args.instance)
    lr = multi.run_algorithm2(inst)
    if args.format == "json":
        _emit_json({"command": "trace", "bound": lr.bound,
                    "v_out": lr.v_out_original, "connected": lr.connected_count,
                    "iterations": lr.iterations, "steps": lr.steps,
                    "final_graph": lr.final_graph})
    else:
        for k, st in enumerate(lr.steps, start=1):
            bits = [f"{k}. [{st.phase}] {st.kind.value} on {sorted(st.scc)}"]
            if st.selected_vertex is not None:
                bits.append(f"vertex {st.selected_vertex}")
            if st.added_arc is not None:
                bits.append(f"arc {st.added_arc[0]}->{st.added_arc[1]}")
            if st.dummy is not None:
                bits.append(f"dummy {st.dummy}")
            print(", ".join(bits))
        print(f"lower = V_out - (connected + I) = {lr.v_out_original} - "
              f"({lr.connected_count} + {lr.iterations}) = {lr.bound}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-subcommand --format from being overwritten
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS,
                        help="output format (default text)")

    p = argparse.ArgumentParser(prog="uniprior",
                                description="single-uniprior index-coding solver")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[common], help="check an instance file")
    sp.add_argument("instance")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("solve", parents=[common],
                        help="exact optimum for a single-sender instance")
    sp.add_argument("instance")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("bound", parents=[common],
                        help="multi-sender lower/upper bounds and code")
    sp.add_argument("instance")
    sp.add_argument("--exhaustive", action="store_true",
                    help="also maximize the lower bound over all step sequences")
    sp.add_argument("--max-states", type=int, default=None,
                    help="state cap for the exhaustive search (default 1000000)")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("encode", parents=[common], help="write a code file")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_encode)

    sp = sub.add_parser("verify", parents=[common],
                        help="check a code file against an instance")
    sp.add_argument("instance")
    sp.add_argument("code")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("oracle", parents=[common],
                        help="brute-force minimum linear codelength")
    sp.add_argument("instance")
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--max-bits", type=int, default=12)
    sp.add_argument("--max-nodes", type=int, default=10_000,
                    help="search nodes entered before the uncoded code is reported")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("trace", parents=[common],
                        help="step log of the appending-pruning algorithm")
    sp.add_argument("instance")
    sp.set_defaults(func=_cmd_trace)

    return p


# built on the first main() call, not at import, and reused after it
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; that status means "verification
        # failed" here, so remap (0 stays 0 for --help)
        return EXIT_OK if e.code == 0 else EXIT_INVALID
    for cap in ("max_states", "max_len", "max_bits", "max_nodes"):
        if getattr(args, cap, None) is not None and getattr(args, cap) <= 0:
            print(f"error: --{cap.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_INVALID
    if getattr(args, "max_states", None) is not None and not args.exhaustive:
        print("error: --max-states needs --exhaustive", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {_printable(e)}", file=sys.stderr)
        return e.status
    except multi.BinaryRequiredError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

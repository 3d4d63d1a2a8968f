"""Command-line front end.

Reports are JSON envelopes {"command", "inputs", "outputs", "version"}
printed on stdout; they are byte-identical for identical inputs and
version.  A report holds str-keyed dicts, lists, str, int, bool, None and
float, and nothing else; any other key or value type raises TypeError.
It is written in one walk, straight to the stream: the bytes are those
of ``json.dump(report, indent=2)`` after floats are rounded to 12
significant digits, but json's pure-Python indenting encoder is not
used.  ``--table`` prints the same report as indented lines, floats
rounded the same way.  Wall time and the kernel backend go to stderr so
they never perturb the payload.  Exit codes: 0 success, 1 a verified
inequality failed, 2 usage error or any OSError (an unreadable or
unwritable path, say, a shard worker that could not be forked or failed,
or a stdout closed before the report was written), 3 resource ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache

from . import __version__
from .graph import Graph, Graph6Error, parse_graph6, write_graph6
from .search import CeilingError, rho_exact
from .kernels import BACKEND, count_induced, count_ordered, enumerate_ordered

CACHE_ENV = "EDGEIND_CACHE_DIR"


def _emit(report, table, stream):
    if table:
        _print_table(report, stream.write, "")
    else:
        _write_json(report, stream.write, "\n")
        stream.write("\n")


# -- JSON reports --------------------------------------------------------
#
# _write_json writes the bytes of ``json.dump(report, fh, indent=2)``, floats
# rounded to 12 significant digits, in one walk and without json's
# pure-Python indenting encoder: scalars are spelled by exact type through
# _SCALAR, strings by the C escaper json uses under ensure_ascii; a scalar
# dict value goes out in one write with its key, and a list of one scalar
# type is joined in one call.

_encode_str = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x):
    text = float.__repr__(float(f"{x:.12g}"))
    return _NONFINITE.get(text, text)


_SCALAR = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: _float_text,
}


def _key(key):
    if type(key) is not str:
        raise TypeError(f"report keys must be str, not {type(key).__name__}")
    return key


def _not_a_report(obj):
    return TypeError(f"a report holds no {type(obj).__name__}")


def _write_json(obj, write, nl):
    """Write ``obj``; ``nl`` is the newline and indent of its first line."""
    text = _SCALAR.get(type(obj))
    inner = nl + "  "
    if text is not None:
        write(text(obj))
    elif type(obj) is dict:
        sep = "{" + inner
        for key, value in obj.items():
            text = _SCALAR.get(type(value))
            write(sep + _encode_str(_key(key)) + ": " + (text(value) if text else ""))
            if text is None:
                _write_json(value, write, inner)
            sep = "," + inner
        write(nl + "}" if obj else "{}")
    elif type(obj) is list:
        kinds = set(map(type, obj))
        text = _SCALAR.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            write("[" + inner + ("," + inner).join(map(text, obj)) + nl + "]")
            return
        sep = "[" + inner
        for value in obj:
            write(sep)
            _write_json(value, write, inner)
            sep = "," + inner
        write(nl + "]" if obj else "[]")
    else:
        raise _not_a_report(obj)


def _print_table(obj, write, pad, mark=""):
    """``--table``: a ``key: value`` or ``- value`` line per scalar, floats
    rounded as in JSON; a list's items keep the list's indent."""
    if type(obj) is dict:
        for key, value in obj.items():
            if type(value) in (dict, list):
                write(f"{pad}{_key(key)}:\n")
                _print_table(value, write, pad + "  ")
            else:
                _print_table(value, write, pad, f"{_key(key)}: ")
    elif type(obj) is list:
        for value in obj:
            _print_table(value, write, pad, "- ")
    elif type(obj) is float:
        write(f"{pad}{mark}{float(f'{obj:.12g}')}\n")
    elif type(obj) in _SCALAR:
        write(f"{pad}{mark}{obj}\n")
    else:
        raise _not_a_report(obj)


def _graph_arg(text):
    try:
        return parse_graph6(text)
    except Graph6Error as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value

    return parse


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, so every ``dispatch`` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="edgeind",
        description="induced-copy counting, fractional independence, blow-up "
                    "constructions, exact edge-budget search and entropy checks",
    )
    parser.add_argument("--table", action="store_true", help="human-readable tables")
    parser.add_argument("--cache-dir", default=None,
                        help=f"search-level store directory (default ${CACHE_ENV})")
    parser.add_argument("--shards", type=_int_at_least(1), default=1,
                        help="processes that grow the last search level: this one "
                             "and up to N-1 forked children, at most one per CPU; "
                             "needs os.fork and never changes the output")
    parser.add_argument("--max-certificates", type=_int_at_least(0), default=1000)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alphaf", help="fractional independence number and witness")
    p.add_argument("graph", type=_graph_arg)

    p = sub.add_parser("count", help="induced copies of a pattern in a host")
    p.add_argument("--host", type=_graph_arg, required=True)
    p.add_argument("--pattern", type=_graph_arg, required=True)
    p.add_argument("--copies", action="store_true",
                   help="include the ordered copies as vertex-index arrays")

    p = sub.add_parser("rho", help="exact maximum over all hosts with m edges")
    p.add_argument("--pattern", type=_graph_arg, required=True)
    p.add_argument("-m", type=int, required=True)

    p = sub.add_parser("bound", help="closed-form bounds for a family at m edges")
    p.add_argument("--family", required=True)
    p.add_argument("-m", type=int, required=True)

    p = sub.add_parser("construct", help="best blow-up found under the edge budget")
    p.add_argument("--family", required=True)
    p.add_argument("-m", type=int, required=True)

    p = sub.add_parser("entropy", help="entropy identities and inequality checks")
    p.add_argument("--host", type=_graph_arg, required=True)
    p.add_argument("--pattern", type=_graph_arg, required=True)
    p.add_argument("--verify", choices=["chain", "shearer", "path", "claim1", "c6"])
    p.add_argument("--csv", help="write the first cycle ledger as CSV to this path")

    p = sub.add_parser("sandwich", help="construction lower / exact / tightest upper")
    p.add_argument("--family", required=True)
    p.add_argument("-m", type=int, required=True)
    return parser


def _cache(args):
    return args.cache_dir or os.environ.get(CACHE_ENV) or None


# Each command imports the modules that only it needs (fracind, blowups,
# entropy), so a cold ``rho`` or ``count`` loads none of them.


def _cmd_alphaf(args):
    from .fracind import optimal_weighting

    g = args.graph
    weighting, decomposition = optimal_weighting(g)
    outputs = {
        "alpha_f": str(weighting.total),
        "weights": {str(v): h / 2 for v, h in enumerate(weighting.half_units)},
        "weight_one": list(decomposition.A),
        "weight_zero": list(decomposition.B),
        "weight_half": list(decomposition.C),
        "matching": [list(e) for e in decomposition.matching],
    }
    return {"graph": write_graph6(g)}, outputs, 0


def _cmd_count(args):
    summary = count_induced(args.host, args.pattern)
    outputs = {"ordered": summary.ordered, "unordered": summary.unordered,
               "aut": summary.aut}
    if args.copies:
        outputs["copies"] = [list(c) for c in enumerate_ordered(args.host, args.pattern)]
    return {"host": write_graph6(args.host), "pattern": write_graph6(args.pattern)}, outputs, 0


def _cmd_rho(args):
    result = rho_exact(args.pattern, args.m, shards=args.shards,
                       max_certificates=args.max_certificates, cache_dir=_cache(args))
    outputs = {
        "rho": result.rho,
        "extremal": list(result.extremal),
        "truncated": result.truncated,
        "classes_scanned": result.classes_scanned,
    }
    return {"pattern": result.pattern, "m": args.m}, outputs, 0


def _cmd_bound(args):
    from .blowups import bound_eval, effective_upper

    rows = bound_eval(args.family, args.m)
    outputs = {
        "bounds": [r.to_json() for r in rows],
        "effective_upper": effective_upper(rows).to_json(),
    }
    return {"family": rows[0].family, "m": args.m}, outputs, 0


def _cmd_construct(args):
    from .blowups import construction, family_name

    spec, count, realized = construction(args.family, args.m)
    outputs = {
        "spec": spec.to_json(),
        "vertices": realized.n,
        "edges": realized.m,
        "count": count,
        "realized": write_graph6(realized),
    }
    return {"family": family_name(args.family), "m": args.m}, outputs, 0


def _is_shape(pattern, shape):
    """Whether the pattern is the shape up to relabelling: on as many
    vertices, an induced copy of the shape is an isomorphism."""
    return pattern.n == shape.n and count_ordered(pattern, shape) > 0


def _entropy_verify(args):
    from . import entropy as ent

    host, pattern = args.host, args.pattern
    k = pattern.n
    if args.verify is None:
        dist = ent.CopyDistribution.collect(host, pattern)
        report = ent.full_tuple_identity(dist)
        out = {"copies": len(dist), **report.to_json()}
        return out, 0 if report.passed else 1
    if args.verify == "chain":
        dist = ent.CopyDistribution.collect(host, pattern)
        report = ent.verify_chain_shearer(dist, ordering=tuple(range(1, k + 1)))
        return report.to_json(), 0 if report.passed else 1
    if args.verify == "shearer":
        dist = ent.CopyDistribution.collect(host, pattern)
        report = ent.verify_chain_shearer(dist, covers=ent.drop_one_covers(k))
        return report.to_json(), 0 if report.passed else 1
    if args.verify == "path":
        if not _is_shape(pattern, Graph.path(k)):
            raise ValueError("path verification needs a path pattern")
        report = ent.verify_path_decomposition(host, ("P", k))
        return report.to_json(), 0 if report.passed else 1
    if args.verify == "claim1":
        if k < 6 or k % 2 or not _is_shape(pattern, Graph.cycle(k)):
            raise ValueError("cycle ledgers need an even cycle pattern on >= 6 vertices")
        cycles = ent.induced_cycles(host, k)
        if not cycles:
            raise ent.EmptySupportError("host contains no induced copy of the pattern")
        ledgers = [ent.cycle_extension_ledger(host, c) for c in cycles]
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                ledgers[0].write_csv(fh)
        ok = all(l.within_fallback for l in ledgers)
        strict = all(l.within_budget for l in ledgers)
        out = {
            "cycles": len(ledgers),
            "within_budget": strict,
            "within_fallback": ok,
            "ledgers": [l.to_json() for l in ledgers],
        }
        return out, 0 if ok else 1
    if args.verify == "c6":
        if not _is_shape(pattern, Graph.cycle(6)):
            raise ValueError("hypergraph verification is specific to the 6-cycle")
        report = ent.c6_hypergraph_check(host)
        return report.to_json(), 0 if report.passed else 1
    raise AssertionError(args.verify)


def _cmd_entropy(args):
    outputs, code = _entropy_verify(args)
    inputs = {"host": write_graph6(args.host), "pattern": write_graph6(args.pattern)}
    if args.verify:
        inputs["verify"] = args.verify
    return inputs, outputs, code


def _cmd_sandwich(args):
    from .blowups import SandwichError, verify_sandwich

    try:
        report = verify_sandwich(args.family, args.m, shards=args.shards,
                                 max_certificates=args.max_certificates,
                                 cache_dir=_cache(args))
        code = 0
    except SandwichError as exc:
        report = dict(exc.report)
        report["violated"] = exc.violated
        code = 1
    inputs = {"family": report["family"], "m": args.m}
    return inputs, report, code


_COMMANDS = {
    "alphaf": _cmd_alphaf,
    "count": _cmd_count,
    "rho": _cmd_rho,
    "bound": _cmd_bound,
    "construct": _cmd_construct,
    "entropy": _cmd_entropy,
    "sandwich": _cmd_sandwich,
}


def dispatch(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "csv", None) and args.verify != "claim1":
        parser.error("--csv needs --verify claim1")
    started = time.monotonic()
    try:
        inputs, outputs, code = _COMMANDS[args.command](args)
    except CeilingError as exc:
        print(f"error: {exc}", file=stderr)
        return 3
    except (ValueError, OSError) as exc:  # Graph6Error and EmptySupportError included
        print(f"error: {exc}", file=stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
    }
    _emit(report, args.table, stdout)
    print(f"# wall_time_s={time.monotonic() - started:.3f} backend={BACKEND}", file=stderr)
    return code


def main() -> int:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed before the report was written (``| head``);
        # stdout goes to devnull so the flush at shutdown cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Reports are JSON envelopes {"command", "inputs", "outputs", "version"}
printed on stdout; they are byte-identical for identical inputs and
version.  A report is written in one walk, straight to the stream: the
bytes are those of ``json.dump(report, indent=2)`` after floats are
rounded to 12 significant digits and Fractions turned into strings, but
no normalized copy is built and json's pure-Python indenting encoder is
not used.  ``--table`` prints the normalized report as indented lines.
Wall time and the kernel backend go to stderr so they never perturb the
payload.  Exit codes: 0 success, 1 a verified inequality failed, 2 usage
error, 3 resource ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .graph import Graph, Graph6Error, parse_graph6, write_graph6
from .canon import canonical_form
from .counting import count_induced
from .families import family_graph, family_name, parse_family
from .fracind import alpha_f, optimal_weighting
from .blowups import blow_up, bound_eval, effective_upper, optimize_part_sizes
from .search import CeilingError, ResultCache, SandwichError, rho_exact, verify_sandwich
from .kernels import BACKEND
from . import entropy as ent

CACHE_ENV = "EDGEIND_CACHE_DIR"


def _normalize(obj):
    """Round floats to 12 significant digits and stringify rationals so
    repeated runs serialize byte-identically; ``--table`` prints the
    result."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def _emit(report, table, stream=None):
    stream = stream or sys.stdout
    if table:
        _print_table(_normalize(report), stream)
    else:
        _write_json(report, stream.write, "\n")
        stream.write("\n")


# -- JSON reports --------------------------------------------------------
#
# _write_json writes the bytes of ``json.dump(_normalize(obj), fh,
# indent=2)`` in one walk, with no normalized copy and without json's
# pure-Python indenting encoder: strings go through the C escaper json
# itself uses under ensure_ascii, floats are rounded as _normalize rounds
# them and spelled as json spells them, and a list of one scalar type is
# joined in one call.  Dict keys are converted, not normalized, as json
# converts them.

_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _rounded_float_text(x):
    return _float_text(float(f"{x:.12g}"))


def _fraction_text(q):
    return _encode_str(str(q))


def _container(obj):
    return None


# Text of a scalar by exact type, and None for a container.
_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: _rounded_float_text,
    Fraction: _fraction_text,
    dict: _container,
    list: _container,
    tuple: _container,
}


def _scalar_text(obj):
    """JSON text of a scalar after _normalize, or None for a container."""
    text = _TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    # subclasses: _normalize's order, then json's
    if isinstance(obj, Fraction):
        return _fraction_text(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _rounded_float_text(obj)
    if isinstance(obj, (dict, list, tuple)):
        return None
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _key_text(key):
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        text = _float_text(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _encode_str(text)


def _write_json(obj, write, nl):
    """Write ``obj`` as ``json.dump(_normalize(obj), indent=2)`` does; ``nl``
    is the newline and indent of the line ``obj`` starts on."""
    text = _scalar_text(obj)
    if text is None:
        _write_container(obj, write, nl)
    else:
        write(text)


def _write_container(obj, write, nl):
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        sep = "{" + inner
        for key, value in obj.items():
            text = _scalar_text(value)
            if text is None:
                write(sep + _key_text(key) + ": ")
                _write_container(value, write, inner)
            else:
                write(sep + _key_text(key) + ": " + text)
            sep = "," + inner
        write(nl + "}")
        return
    if not obj:
        write("[]")
        return
    kinds = set(map(type, obj))
    if len(kinds) == 1:
        text = _TEXT.get(kinds.pop())
        if text is not None and text is not _container:
            write("[" + inner + ("," + inner).join(map(text, obj)) + nl + "]")
            return
    sep = "[" + inner
    for value in obj:
        text = _scalar_text(value)
        if text is None:
            write(sep)
            _write_container(value, write, inner)
        else:
            write(sep + text)
        sep = "," + inner
    write(nl + "]")


def _print_table(obj, stream, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                stream.write(f"{pad}{k}:\n")
                _print_table(v, stream, indent + 1)
            else:
                stream.write(f"{pad}{k}: {v}\n")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _print_table(v, stream, indent)
            else:
                stream.write(f"{pad}- {v}\n")
    else:
        stream.write(f"{pad}{obj}\n")


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
                        help=f"search-result cache directory (default ${CACHE_ENV})")
    parser.add_argument("--shards", type=_int_at_least(1), default=1,
                        help="worker processes that grow the last search level; "
                             "never changes the output")
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
    directory = args.cache_dir or os.environ.get(CACHE_ENV)
    return ResultCache(directory) if directory else None


def _cmd_alphaf(args):
    g = args.graph
    weighting, decomposition = optimal_weighting(g)
    value = alpha_f(g)
    outputs = {
        "alpha_f": str(value),
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
        from .kernels import enumerate_ordered

        outputs["copies"] = [list(c) for c in enumerate_ordered(args.host, args.pattern)]
    return {"host": write_graph6(args.host), "pattern": write_graph6(args.pattern)}, outputs, 0


def _cmd_rho(args):
    result = rho_exact(args.pattern, args.m, shards=args.shards,
                       max_certificates=args.max_certificates, cache=_cache(args))
    outputs = {
        "rho": result.rho,
        "extremal": list(result.extremal),
        "truncated": result.truncated,
        "classes_scanned": result.classes_scanned,
    }
    return {"pattern": result.pattern, "m": args.m}, outputs, 0


def _cmd_bound(args):
    rows = bound_eval(args.family, args.m)
    outputs = {
        "bounds": [r.to_json() for r in rows],
        "effective_upper": effective_upper(rows).to_json(),
    }
    return {"family": family_name(args.family), "m": args.m}, outputs, 0


def _cmd_construct(args):
    spec = optimize_part_sizes(args.family, args.m)
    realized = blow_up(spec)
    pattern = family_graph(args.family)
    count = count_induced(realized, pattern).unordered
    outputs = {
        "spec": spec.to_json(),
        "vertices": realized.n,
        "edges": realized.m,
        "count": count,
        "realized": write_graph6(realized),
    }
    return {"family": family_name(args.family), "m": args.m}, outputs, 0


def _entropy_verify(args):
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
        report = ent.verify_chain_shearer(dist, covers=ent.drop_one_covers(k), r=k - 1)
        return report.to_json(), 0 if report.passed else 1
    if args.verify == "path":
        if canonical_form(pattern).label != canonical_form(Graph.path(k)).label:
            raise ValueError("path verification needs a path pattern")
        report = ent.verify_path_decomposition(host, ("P", k))
        return report.to_json(), 0 if report.passed else 1
    if args.verify == "claim1":
        if k < 6 or k % 2 or canonical_form(pattern).label != canonical_form(Graph.cycle(k)).label:
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
        if canonical_form(pattern).label != canonical_form(Graph.cycle(6)).label:
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
    try:
        report = verify_sandwich(args.family, args.m, shards=args.shards,
                                 max_certificates=args.max_certificates,
                                 cache=_cache(args))
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
    except ent.EmptySupportError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except (ValueError, Graph6Error) as exc:
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
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

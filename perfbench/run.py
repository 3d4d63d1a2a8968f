"""edgeind benchmark: cold exact search, warm scan session, construction/entropy lab.

    python3 perfbench/run.py --workload search-cold --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke          # tiny budgets, every workload, traced

Run from anywhere; the repository root is the parent of this directory.  The
package is built from ``src/`` into ``.bench_build/`` (``setup.py build``;
rebuilt when a source file changes), and every session runs against that
build.  Each op's output is checked before any number is reported (see
``workloads.check_op``): exit codes, verdicts, class counts, replayed bytes
and the outputs digests pinned in ``digests.json``.  A failed
check makes the run exit 1.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 0`` a run makes ``--seconds / PASS_SECONDS`` passes (at least
one) over the same seeded ops and reports the median pass.  Each pass runs
in a child forked from a session once set-up is done (``session.py``);
``setup_s`` is the median set-up time over those sessions and a few
set-up-only ones.

With ``--trace 1`` one session sets up and makes two passes: one untraced
and one with the boundary tracer (``tracer.py``).  Spans go to a JSON-lines
file under ``.bench_build/traces/`` and a per-layer self-time table is
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from procs import run_group, stop_children_on_sigterm  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
# Set-up runs this many times per run (once per session that makes passes,
# the rest in set-up-only sessions) and setup_s is the median.
SETUP_SAMPLES = {"search-cold": 5, "scan-warm": 2, "lab": 5}
# Sessions the passes of a run are spread over.  scan-warm's set-up
# generates levels <= 8 and takes seconds, so its passes share set-ups.
PASS_SESSIONS = {"search-cold": 1, "scan-warm": 2, "lab": 1}
SESSION_TIMEOUT_S = 170
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
LAYERS = ("cli", "search", "canon", "counting", "kernels", "blowups", "fracind", "entropy")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- build -------------------------------------------------------------------


def _source_stamp():
    digest = hashlib.sha256()
    names = [os.path.join(ROOT, n) for n in ("setup.py", "pyproject.toml")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info"))
        names += [os.path.join(base, f) for f in sorted(files) if not f.endswith((".pyc", ".so"))]
    for name in names:
        if os.path.isfile(name):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def build():
    """Build the package into .bench_build/edgeind/lib; return that path."""
    if not os.path.isfile(os.path.join(ROOT, "setup.py")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "edgeind")):
        raise HarnessError(f"no edgeind sources (setup.py, src/edgeind) under {ROOT}")
    out = os.path.join(BUILD, "edgeind")
    lib = os.path.join(out, "lib")
    stamp_path = os.path.join(out, "stamp")
    stamp = _source_stamp()
    if os.path.exists(stamp_path):
        with open(stamp_path) as fh:
            if fh.read() == stamp:
                return lib
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", os.path.join(out, "build"),
         "--build-lib", lib],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.isdir(os.path.join(lib, "edgeind")):
        raise HarnessError(f"building edgeind failed:\n{proc.stderr[-2000:]}")
    with open(stamp_path, "w") as fh:
        fh.write(stamp)
    return lib


# -- sessions ------------------------------------------------------------------


def run_session(lib, tmp_root, workload, seed, passes, smoke, tag):
    """Start one session that sets up and makes ``passes`` (a list of "run"
    and "traced"); return its result."""
    tmp = os.path.join(tmp_root, tag)
    os.makedirs(tmp)
    cfg = {"workload": workload, "seed": seed, "passes": passes,
           "smoke": smoke, "tmp": tmp,
           "out": os.path.join(tmp_root, f"{tag}.result.json"),
           "trace_out": os.path.join(tmp_root, f"{tag}.spans.jsonl")}
    config_path = os.path.join(tmp_root, f"{tag}.config.json")
    # nothing the program might cache under the user's home or temp dirs
    # outlives the run
    home = {name: os.path.join(tmp, name) for name in ("HOME", "XDG_CACHE_HOME", "TMPDIR")}
    for path in home.values():
        os.makedirs(path)
    env = dict(os.environ, PYTHONPATH=lib, **home)
    env.pop("EDGEIND_CACHE_DIR", None)
    cfg["spawn_t"] = time.time()
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    code, stderr = run_group([sys.executable, os.path.join(HERE, "session.py"), config_path],
                             SESSION_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(cfg["out"]):
        raise HarnessError(f"{workload} session ({tag}) failed (exit {code}):\n"
                           f"{stderr[-3000:].decode(errors='replace')}")
    sys.stderr.write(stderr.decode(errors="replace"))
    with open(cfg["out"]) as fh:
        result = json.load(fh)
    result["spans_path"] = cfg["trace_out"]
    return result


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def tail_latency(latencies):
    """Highest of TAIL_PERCENTILES with at least ten ops beyond it (nearest
    rank), as (percentile, seconds, ops beyond), or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            best = (p, ordered[rank - 1], n - rank)
    return best


def end_to_end(sessions):
    """Medians over the passes (each over the same ops, from a fresh
    set-up state); op latencies are pooled over the passes.  Peak memory
    is the highest of any set-up or pass."""
    passes = [p for s in sessions for p in s["passes"]]
    lat = [o["s"] for r in passes for o in r["ops"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "cpu_s": statistics.median(r["cpu_s"] for r in passes),
        "op_p50_s": statistics.median(lat),
        "peak_rss_mb": max([r["peak_rss_mb"] for r in passes] +
                           [s["setup_rss_mb"] for s in sessions]),
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
    }
    failed = sum(len(r["failures"]) for r in passes)
    extra = {"op_tail_s": tail_latency(lat), "fail_ratio": failed / len(lat)}
    return metrics, extra


def per_layer(untraced, traced):
    agg = traced["agg"]
    counters = traced["counters"]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    ops = traced["ops"]
    canon_calls = calls("canon.canonical_form")
    metrics = {
        "canon.canonical_form.calls": (canon_calls, "count"),
        "canon.canonical_form.self_s": (self_s("canon.canonical_form"), "s"),
        "search.accept_ratio": (counters["search.classes_generated"] / canon_calls
                                if canon_calls else 0.0, "ratio"),
        "search.classes_generated": (counters["search.classes_generated"], "count"),
        "search.rho_exact.self_s": (self_s("search.rho_exact"), "s"),
        "search.shards.op_s": (_median_or_zero(
            [o["s"] for o in ops if o["search"] and o["shards"] > 1]), "s"),
        "search.serial.op_s": (_median_or_zero(
            [o["s"] for o in ops if o["search"] and o["shards"] == 1]), "s"),
        "search.cache.hits": (counters["search.cache.hits"], "count"),
        "search.cache.misses": (counters["search.cache.misses"], "count"),
        "search.cache.get_s": (agg.get("search.cache.get", [0, 0.0])[1], "s"),
        "search.cache.put_s": (agg.get("search.cache.put", [0, 0.0])[1], "s"),
        "canon.automorphism_order.calls": (calls("canon.automorphism_order"), "count"),
        "counting.count_induced.calls": (calls("counting.count_induced"), "count"),
        "counting.count_induced.self_s": (self_s("counting.count_induced"), "s"),
        "kernels.count_ordered.calls": (calls("kernels.count_ordered"), "count"),
        "kernels.count_ordered.self_s": (self_s("kernels.count_ordered"), "s"),
        "kernels.enumerate_ordered.calls": (calls("kernels.enumerate_ordered"), "count"),
        "kernels.enumerate_ordered.self_s": (self_s("kernels.enumerate_ordered"), "s"),
        "blowups.optimize_part_sizes.self_s": (self_s("blowups.optimize_part_sizes"), "s"),
        "blowups.blow_up.calls": (calls("blowups.blow_up"), "count"),
        "blowups.bound_eval.self_s": (self_s("blowups.bound_eval"), "s"),
        "fracind.alpha_f.self_s": (self_s("fracind.alpha_f"), "s"),
        "entropy.cycle_extension_ledger.calls": (calls("entropy.cycle_extension_ledger"), "count"),
        "entropy.cycle_extension_ledger.self_s": (self_s("entropy.cycle_extension_ledger"), "s"),
        "counting.alpha_extension_edges.calls": (calls("counting.alpha_extension_edges"), "count"),
        "counting.alpha_extension_edges.self_s": (self_s("counting.alpha_extension_edges"), "s"),
        "entropy.induced_cycles.self_s": (self_s("entropy.induced_cycles"), "s"),
        "entropy.c6_hypergraph_check.self_s": (self_s("entropy.c6_hypergraph_check"), "s"),
        "entropy.verify_path_decomposition.self_s": (
            self_s("entropy.verify_path_decomposition"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.import_s": (traced["import_s"], "s"),
        "cli.stdout_bytes": (traced["stdout_bytes"], "bytes"),
        "tracing.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }
    layers = {layer: sum(row[2] for name, row in agg.items()
                         if name == layer or name.startswith(layer + "."))
              for layer in LAYERS}
    return metrics, layers


# -- one workload ----------------------------------------------------------------


def run_workload(lib, workload, seed, seconds, trace, smoke=False):
    trace_name = f"{'smoke-' if smoke else ''}{workload}-seed{seed}.jsonl"
    trace_out = os.path.join(BUILD, "traces", trace_name)
    tmp_root = os.path.join(BUILD, "tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(tmp_root)
    try:
        def session(passes, tag):
            return run_session(lib, tmp_root, workload, seed, passes, smoke, tag)

        if trace:
            # both passes start from the same set-up
            results = [session(["run", "traced"], "traced")]
            runs = untraced, traced = results[0]["passes"]
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            shutil.copyfile(results[0]["spans_path"], trace_out)
        else:
            passes = wl.passes_for(workload, seconds)
            sessions = min(passes, PASS_SESSIONS[workload])
            results = [session(["run"] * (passes // sessions + (i < passes % sessions)),
                               f"session{i}")
                       for i in range(sessions)]
            results += [session([], f"setup{i}")
                        for i in range(SETUP_SAMPLES[workload] - sessions)]
            runs = [p for r in results for p in r["passes"]]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    failures = [f for r in runs for f in r["failures"]]
    report = {"workload": workload, "seed": seed, "sessions": len(results), "passes": len(runs),
              "trace": trace, "backend": results[0]["backend"],
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "attempted": sum(len(r["ops"]) for r in runs),
              "failed": len(failures), "failures": failures}
    if trace:
        report["metrics"], report["layers"] = per_layer(untraced, traced)
        report["shards_wait_s"] = traced["agg"].get("shards.wait", [0, 0.0])[1]
        report["missing"] = traced["missing"]
        report["trace_out"] = trace_out
        _append_trace_summary(trace_out, report)
    else:
        metrics, extra = end_to_end(results)
        report["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        report["extra"] = extra
        report["setups"] = [r["setup_s"] for r in results]
        report["walls"] = [r["wall_s"] for r in runs]
    return report


def _append_trace_summary(path, report):
    with open(path, "a") as fh:
        fh.write(json.dumps({"type": "run", **{k: report[k] for k in (
            "workload", "seed", "sessions", "passes", "backend", "python", "nproc")}})
                 + "\n")
        for layer, value in report["layers"].items():
            fh.write(json.dumps({"type": "layer", "layer": layer, "self_s": value}) + "\n")
        for name, (value, unit) in report["metrics"].items():
            fh.write(json.dumps({"type": "metric", "name": name, "value": value,
                                 "unit": unit}) + "\n")


def print_report(report, out=sys.stdout):
    print(f"# perfbench {report['workload']} seed={report['seed']} sessions={report['sessions']} "
          f"passes={report['passes']} trace={report['trace']} backend={report['backend']} "
          f"python={report['python']} "
          f"nproc={report['nproc']}", file=out)
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<42} {value:>16.6f} {unit}", file=out)
    if "extra" in report:
        tail = report["extra"]["op_tail_s"]
        if tail:
            p, value, beyond = tail
            print(f"  {'op_tail_s':<42} {value:>16.6f} s   (p{p}, {beyond} ops beyond, "
                  f"{report['attempted']} ops)", file=out)
        else:
            print(f"  {'op_tail_s':<42} {'n/a':>16} s   ({report['attempted']} ops: no "
                  f"percentile has ten ops beyond it)", file=out)
        print(f"  {'fail_ratio':<42} {report['extra']['fail_ratio']:>16.6f} 1   "
              f"({report['failed']}/{report['attempted']})", file=out)
        print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in report['setups'])}", file=out)
        print(f"  wall_s of each pass: {', '.join(f'{s:.4f}' for s in report['walls'])}",
              file=out)
    if "layers" in report:
        total = sum(report["layers"].values()) or 1.0
        print("  per-layer self time:", file=out)
        for layer, value in sorted(report["layers"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<10} {value:>12.4f} s {100 * value / total:6.1f}%", file=out)
        wait = report["shards_wait_s"]
        if wait:
            print(f"    {'shards.wait':<10} {wait:>12.4f} s   (parent waiting on shard workers; "
                  f"not a layer)", file=out)
        if report["missing"]:
            print(f"  boundaries not found: {', '.join(report['missing'])}", file=out)
        print(f"  spans and metrics: {os.path.relpath(report['trace_out'], ROOT)}", file=out)
    for f in report["failures"]:
        print(f"  FAILED op {f['op']}: {f['reason']}: {f['args'][:120]}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, one traced run of every workload")
    args = parser.parse_args(argv)
    stop_children_on_sigterm()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    try:
        lib = build()
        if args.smoke:
            reports = [run_workload(lib, w, args.seed, args.seconds, 1, smoke=True)
                       for w in wl.WORKLOADS]
        else:
            reports = [run_workload(lib, args.workload, args.seed, args.seconds, args.trace)]
    except (HarnessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        if report["backend"] == "pure":
            print("perfbench: warning: edgeind is running on the pure-Python kernel "
                  "(no compiled edgeind._kernels in the build)", file=sys.stderr)
        print_report(report)
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    last = reports[-1]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in last["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

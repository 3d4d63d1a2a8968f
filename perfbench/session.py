"""One benchmark session: set a workload up, then run passes over its ops.

Usage: session.py CONFIG_JSON  (written by run.py)

run.py starts this process with the built package first on PYTHONPATH.
Set-up is interpreter start, ``import edgeind.cli`` and the workload's own
preparation (levels <= 8 for scan-warm).  The config's ``passes`` lists the
passes to make after set-up, each ``run`` (tracing off) or ``traced`` (the
boundary tracer installed); an empty list makes a set-up-only session.

Every pass runs in a child forked after set-up, so each one starts from the
state set-up left (in-memory caches included) and none sees what an earlier
pass left behind; each gets its own fresh directories.  A pass times its
ops and then checks their outputs.  The result goes to the config's ``out``
file as JSON.
"""

import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import tracer as tr
import workloads as wl
from procs import run_group, stop_children_on_sigterm

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150


def main(config_path):
    stop_children_on_sigterm()
    with open(config_path) as fh:
        cfg = json.load(fh)
    started = time.perf_counter()
    import edgeind.cli  # noqa: F401  (start-up cost is part of set-up)
    from edgeind import BACKEND

    import_s = time.perf_counter() - started
    ops = wl.build_ops(cfg["workload"], cfg["seed"], cfg["smoke"])
    prepare(cfg["workload"], ops)
    result = {"setup_s": time.time() - cfg["spawn_t"], "import_s": import_s,
              "backend": BACKEND, "setup_rss_mb": _rusage()[1] / 1024,
              "passes": [run_pass(cfg, ops, import_s, mode, i)
                         for i, mode in enumerate(cfg["passes"])]}
    with open(cfg["out"], "w") as fh:
        json.dump(result, fh)


def prepare(workload, ops):
    if workload == "scan-warm":
        from edgeind.search import enumerate_m_edge_graphs

        top = max(int(op.args[op.args.index("-m") + 1]) for op in ops if op.is_search)
        for m in range(top + 1):
            for _ in enumerate_m_edge_graphs(m):
                pass


def run_pass(cfg, ops, import_s, mode, index):
    """Make one pass in a forked child; return its result."""
    tmp = os.path.join(cfg["tmp"], f"pass{index}")
    out = tmp + ".json"
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.makedirs(tmp)
            result = run_phase(cfg, ops, tmp, import_s, mode == "traced")
            with open(out, "w") as fh:
                json.dump(result, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    shutil.rmtree(tmp, ignore_errors=True)
    if os.waitstatus_to_exitcode(status) != 0 or not os.path.exists(out):
        raise RuntimeError(f"pass {index} ({mode}) did not finish")
    with open(out) as fh:
        return json.load(fh)


def _pass_dirs(workload, ops, tmp):
    """The pass's shared cache dir and, for search-cold, each op's own
    cache, home, XDG cache and temp dirs."""
    dirs = {"cache": os.path.join(tmp, "cache"), "ops": []}
    os.makedirs(dirs["cache"])
    if workload == "search-cold":
        for i in range(len(ops)):
            base = os.path.join(tmp, f"op{i}")
            own = {name: os.path.join(base, name) for name in ("cache", "home", "xdg", "tmp")}
            for path in own.values():
                os.makedirs(path)
            dirs["ops"].append(own)
    return dirs


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def _global_args(op, cache_dir):
    argv = ["--cache-dir", cache_dir] if cache_dir else []
    if op.shards > 1:
        argv += ["--shards", str(op.shards)]
    return argv + list(op.args)


def run_phase(cfg, ops, tmp, import_s, traced):
    dirs = _pass_dirs(cfg["workload"], ops, tmp)
    tracer = tr.Tracer(os.path.join(tmp, "shards")) if traced else None
    cold = cfg["workload"] == "search-cold"
    missing = tr.install(tracer) if traced and not cold else []
    child_import_s = 0.0
    records = []
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        out_path = os.path.join(tmp, f"out{i}.json")
        if cold:
            latency, code, trace = _run_child(op, dirs["ops"][i], out_path,
                                              traced and os.path.join(tmp, f"trace{i}.json"))
            if trace:
                child_import_s += trace.pop("import_s")
                tracer.merge(trace)
        else:
            latency, code = _run_inproc(op, dirs["cache"] if op.cached else None,
                                        out_path, tracer)
        records.append((latency, code))
    wall = time.perf_counter() - t0
    cpu1, peak_kb = _rusage()

    digests = wl.load_digests()
    failures, latencies, stdout_bytes = [], [], 0
    replayed = {op.replay_of for op in ops}
    texts = {}
    for i, (op, (latency, code)) in enumerate(zip(ops, records)):
        path = os.path.join(tmp, f"out{i}.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        os.remove(path)
        stdout_bytes += len(raw)
        reason = wl.check_op(op, code, raw.decode(errors="replace"), digests)
        if reason is None and op.replay_of is not None and raw != texts.get(op.replay_of):
            reason = "replayed op printed different bytes"
        if i in replayed:
            texts[i] = raw
        if reason:
            failures.append({"op": i, "args": op.key, "reason": reason})
        latencies.append({"kind": op.kind, "search": op.is_search, "shards": op.shards,
                          "s": latency})
    result = {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_kb / 1024,
              "ops": latencies, "failures": failures,
              "stdout_bytes": stdout_bytes}
    if traced:
        result["import_s"] = child_import_s if cold else import_s
        result["agg"] = tracer.agg
        result["counters"] = tracer.counters
        result["missing"] = missing
        with open(cfg["trace_out"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def _run_inproc(op, cache_dir, out_path, tracer):
    from edgeind.cli import dispatch

    argv = _global_args(op, cache_dir)
    err = io.StringIO()
    with open(out_path, "w") as out:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = dispatch(argv, out, err)
            else:
                code = tracer.run_op(op.key, lambda: dispatch(argv, out, err))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # an op that crashes is a failed op, not a crashed run
            traceback.print_exc()
            code = None
        latency = time.perf_counter() - start
    return latency, code


def _run_child(op, dirs, out_path, trace_path):
    env = dict(os.environ, HOME=dirs["home"], XDG_CACHE_HOME=dirs["xdg"], TMPDIR=dirs["tmp"])
    env.pop("EDGEIND_CACHE_DIR", None)
    argv = _global_args(op, dirs["cache"])
    with open(out_path, "wb") as out:
        spawn_t = time.time()
        if trace_path:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, repr(spawn_t),
                   op.key]
        else:
            cmd = [sys.executable, "-m", "edgeind.cli"]
        start = time.perf_counter()
        code, stderr = run_group(cmd + argv, CHILD_TIMEOUT_S, stdout=out, env=env,
                                 cwd=dirs["tmp"])
        latency = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(stderr.decode(errors="replace")[-2000:])
    trace = None
    if trace_path and os.path.exists(trace_path):
        with open(trace_path) as fh:
            trace = json.load(fh)
        os.remove(trace_path)
    return latency, code, trace


if __name__ == "__main__":
    main(sys.argv[1])

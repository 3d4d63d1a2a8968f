"""``python -m edgeind.cli`` with boundary tracing, for traced search-cold ops.

Usage: traced_cli.py TRACE_JSON SPAWN_TIME OP_LABEL CLI_ARGS...

Runs the CLI exactly as ``python -m edgeind.cli CLI_ARGS`` would (same
stdout bytes, same exit code) and writes the spans, aggregates and the
start-up time (interpreter start plus import, measured from SPAWN_TIME, a
``time.time()`` taken by the parent just before it started this process)
to TRACE_JSON; OP_LABEL names the op in the spans.
"""

import json
import sys
import time

import tracer as tr


def main():
    trace_path, spawn_t, label, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    import edgeind.cli as cli

    import_s = time.time() - spawn_t
    tracer = tr.Tracer(trace_path + ".shards")
    tr.install(tracer)
    code = tracer.run_op(label, lambda: cli.dispatch(argv))
    sys.stdout.flush()
    tracer.merge_shard_files()
    payload = tracer.payload()
    payload["import_s"] = import_s
    with open(trace_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the three workloads and the per-op correctness gate.

The program only ever receives generated inputs: graph6 strings, family
names and edge budgets.  ``--seed`` is the only source of variation, and it
varies inputs in ways that keep the amount of work steady (which pattern
or family a cold search runs on, the order of ops, which ops are replayed,
which budget in a window), so a run's time reflects the program and not
the draw.

search-cold  fresh ``python -m edgeind.cli`` processes running ``rho`` or
             ``sandwich`` at m = 8, each with its own empty cache and home.
             Level generation and canonical labelling do nearly all of the
             work; the counting kernel about 1%.
scan-warm    one in-process session: levels <= 8 are generated in set-up,
             then warm ``rho`` queries at m = 7 and 8 (the per-host
             ``count_induced`` scan), the sandwich grid, and replays that
             are answered from ``ResultCache``.
lab          one in-process session of ``construct``/``bound`` (the blow-up
             optimizer on dense hosts of up to 64 vertices) and the entropy
             checks; ``claim1`` on C6[3,3,2,2,2,2] emits 144 ledgers.
             Neither canonical labelling nor the search is used.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("search-cold", "scan-warm", "lab")

# Wall time of one pass over a workload's ops on the reference machine (2
# CPUs, Python 3.11, pure-Python kernel), rounded so that the default
# ``--seconds`` gives 1, 2 and 3 passes.  A run makes
# ``--seconds / PASS_SECONDS`` passes (at least one) over the same ops; its
# work depends only on the seed and ``--seconds``.
PASS_SECONDS = {"search-cold": 22.0, "scan-warm": 12.0, "lab": 8.0}

# A000664: graphs with m edges and no isolated vertices, up to isomorphism.
CLASS_COUNTS = (1, 1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613, 15216, 52944)

GRID_FAMILIES = ("P4", "P5", "C4", "C5", "C6")
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
SLACK = 1e-9


@dataclass
class Op:
    """One CLI invocation: ``args`` is the subcommand and its arguments."""

    args: tuple
    shards: int = 1
    cached: bool = False  # passes the workload's shared --cache-dir
    expect: dict = field(default_factory=dict)
    replay_of: int | None = None

    @property
    def kind(self):
        if self.args[0] == "entropy":
            return "entropy-" + self.args[self.args.index("--verify") + 1]
        return self.args[0]

    @property
    def key(self):
        """Digest key: the shard count and cache never change the output."""
        return " ".join(self.args)

    @property
    def is_search(self):
        return self.args[0] in ("rho", "sandwich")


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


# -- graph6 ------------------------------------------------------------------


def encode_graph6(n, edges):
    if n > 62:
        raise ValueError("hosts above 62 vertices are not generated")
    bits = []
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in adj else 0)
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def decode_size(text):
    """(vertices, edges) of a graph6 string with at most 62 vertices."""
    n = ord(text[0]) - 63
    edges = sum(bin(ord(c) - 63).count("1") for c in text[1:])
    return n, edges


def pattern_pool():
    """Connected graphs on 4-7 vertices with at most 8 edges, one per class."""
    with open(os.path.join(HERE, "patterns.g6")) as fh:
        return [line.strip() for line in fh if line.strip() and not line.startswith("#")]


def path_g6(k):
    return encode_graph6(k, [(i, i + 1) for i in range(k - 1)])


def cycle_g6(k):
    return encode_graph6(k, [(i, (i + 1) % k) for i in range(k)])


def cycle_blowup_g6(rng, sizes):
    """C_k blown up by ``sizes``, with vertices relabelled by ``rng``."""
    k = len(sizes)
    parts = []
    start = 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    perm = list(range(start))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for i in range(k)
             for u in parts[i] for v in parts[(i + 1) % k]]
    return encode_graph6(start, edges)


# -- workloads -----------------------------------------------------------------


def build_ops(workload, seed, smoke=False):
    """The ops of one pass, in order."""
    rng = random.Random(f"{workload}:{seed}")
    builder = {"search-cold": _search_cold, "scan-warm": _scan_warm, "lab": _lab}[workload]
    return builder(rng, smoke)


def _search_cold(rng, smoke):
    m = 5 if smoke else 8
    pool = [g for g in pattern_pool() if decode_size(g)[0] <= 6 and decode_size(g)[1] <= m]
    ops = []
    for shards in (1, 2):
        pattern = rng.choice(pool)
        ops.append(Op(("rho", "--pattern", pattern, "-m", str(m)), shards,
                      expect={"classes": CLASS_COUNTS[m]}))
        family = rng.choice(GRID_FAMILIES)
        ops.append(Op(("sandwich", "--family", family, "-m", str(m)), shards,
                      expect={"classes": CLASS_COUNTS[m]}))
    rng.shuffle(ops)
    return ops


def _scan_warm(rng, smoke):
    budgets = (4, 5) if smoke else (7, 8)
    queries = [Op(("rho", "--pattern", pattern, "-m", str(m)), cached=True,
                  expect={"classes": CLASS_COUNTS[m]})
               for m in budgets for pattern in pattern_pool() if decode_size(pattern)[1] <= m]
    rng.shuffle(queries)
    grid = [Op(("sandwich", "--family", f, "-m", str(m)), cached=True,
               expect={"classes": CLASS_COUNTS[m]})
            for f in GRID_FAMILIES for m in range(4, max(budgets) + 1)]
    rng.shuffle(grid)
    ops = queries + grid
    for i in sorted(rng.sample(range(len(ops)), len(ops) // SCAN_REPLAY_EVERY)):
        ops.append(Op(ops[i].args, cached=True, expect=ops[i].expect, replay_of=i))
    return ops


# scan-warm queries every connected pattern at both budgets, so the seed
# moves only the order of the ops and which of them are replayed.  (A sample
# of the m = 8 patterns moved a pass's work by 8%: a rho query on K_{1,6}
# costs ten times the median one.)  One op in SCAN_REPLAY_EVERY is replayed
# from the cache: few enough replays that the median op lies among the
# m = 8 queries (0.035-0.038 s each) and not on the edge of a group.
SCAN_REPLAY_EVERY = 8

# (family, lowest budget, highest budget).  Above m = 95 the optimizer's
# cost moves by up to 2x between neighbouring budgets, so the seed draws
# from windows where it is flat.
LAB_FAMILIES = (("P5", 90, 94), ("C5", 90, 95), ("C6", 60, 60))
SMOKE_FAMILIES = (("P4", 16, 24), ("C5", 16, 24))

# Part sizes of the C6 blow-ups that claim1 runs on: C6[3,3,2,2,2,2] emits
# 144 ledgers (about 2.7 MB of stdout), C6[2^6] 64.
LAB_CLAIM1 = ((3, 3, 2, 2, 2, 2), (2,) * 6)
SMOKE_CLAIM1 = ((2, 1, 1, 2, 1, 1),)

# (cycle length, part size, checks, copies): chain/shearer/path/c6 checks,
# each run on ``copies`` differently labelled copies of the host.  The
# eleven path checks (0.14-0.23 s each) outnumber every other group and sit
# between six cheaper checks and the eight construct/bound/claim1 ops, so
# the median op of a pass (the 13th of 25) falls inside that group.
LAB_CHECKS = ((8, 2, ("P7",), 7), (6, 3, ("P5",), 3),
              (6, 3, ("chain", "c6", "shearer"), 1), (8, 2, ("chain", "shearer"), 1),
              (7, 2, ("chain", "P6"), 1))
SMOKE_CHECKS = ((5, 2, ("chain", "shearer", "P4"), 1), (6, 2, ("c6", "P5"), 1))


# The labelling of an entropy host moves the work of its check by up to 40%
# (a P7 path check on C8[2^8] takes 0.16-0.23 s), so lab's hosts are
# labelled from a stream of their own that the seed does not move: every
# seed runs the same hosts, and the seed draws budgets and the order of ops.
LAB_HOSTS_STREAM = "lab-hosts"


def _lab(rng, smoke):
    hosts = random.Random(LAB_HOSTS_STREAM)
    ops = []
    for family, lo, hi in (SMOKE_FAMILIES if smoke else LAB_FAMILIES):
        m = str(rng.randint(lo, hi))
        ops.append(Op(("construct", "--family", family, "-m", m)))
        ops.append(Op(("bound", "--family", family, "-m", m)))
    for sizes in (SMOKE_CLAIM1 if smoke else LAB_CLAIM1):
        host = cycle_blowup_g6(hosts, sizes)
        ops.append(Op(("entropy", "--host", host, "--pattern", cycle_g6(6),
                             "--verify", "claim1"), expect={"cycles": math.prod(sizes)}))
    for k, size, checks, copies in (SMOKE_CHECKS if smoke else LAB_CHECKS):
        for check in checks * copies:
            host = cycle_blowup_g6(hosts, (size,) * k)
            if check.startswith("P"):
                args = ("--pattern", path_g6(int(check[1:])), "--verify", "path")
            else:
                args = ("--pattern", cycle_g6(k), "--verify", check)
            expect = {"gamma": size ** k} if check == "c6" else {}
            ops.append(Op(("entropy", "--host", host) + args, expect=expect))
    rng.shuffle(ops)
    return _bound_first(ops)


def _bound_first(ops):
    """Swap each family's ``bound`` ahead of its ``construct``.  The
    optimizer's result is memoised in the process, and a ``bound`` made after
    the ``construct`` for the same family and budget only reads it back, so
    this order keeps both ops doing the full work whatever the seed."""
    where = {}
    for i, op in enumerate(ops):
        if op.args[0] in ("construct", "bound"):
            where.setdefault(op.args[1:], {})[op.args[0]] = i
    for pair in where.values():
        if pair["construct"] < pair["bound"]:
            c, b = pair["construct"], pair["bound"]
            ops[c], ops[b] = ops[b], ops[c]
    return ops


# -- correctness gate ------------------------------------------------------------


def outputs_digest(outputs):
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def check_op(op, code, stdout, digests):
    """Return the reason the op failed, or None.  Every op's outputs
    digest must match the one pinned for its key."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if report.get("command") != op.args[0]:
        return "wrong command in report"
    out = report.get("outputs") or {}
    reason = _verdict(op, out)
    if reason:
        return reason
    pinned = digests.get(op.key)
    if pinned is None:
        return "no pinned digest for this op"
    if pinned != outputs_digest(out):
        return "outputs differ from the pinned digest"
    return None


def _verdict(op, out):
    kind = op.kind
    m = int(op.args[op.args.index("-m") + 1]) if "-m" in op.args else None
    if kind in ("rho", "sandwich"):
        if out.get("classes_scanned") != op.expect["classes"]:
            return f"classes_scanned {out.get('classes_scanned')} != {op.expect['classes']}"
    if kind == "rho":
        if out.get("rho", 0) < 1 or not out.get("extremal") or out.get("truncated") is not False:
            return "rho result incomplete"
    elif kind == "sandwich":
        if out.get("pass") is not True:
            return "sandwich did not pass"
        if not out["lower"] <= out["exact"] <= out["upper"] + SLACK:
            return "lower <= exact <= upper violated"
    elif kind == "construct":
        if out.get("edges", m + 1) > m or out.get("vertices", 65) > 64 or out.get("count", 0) < 1:
            return "construction outside the budget or empty"
    elif kind == "bound":
        lower = [r["value"] for r in out.get("bounds", []) if r["kind"] == "lower"]
        upper = out.get("effective_upper", {}).get("value")
        if not lower or upper is None or max(lower) > upper + SLACK:
            return "construction lower bound above the effective upper bound"
    elif kind == "entropy-claim1":
        if out.get("within_fallback") is not True:
            return "claim1 ledger outside the fallback budget"
        if out.get("cycles") != op.expect["cycles"]:
            return f"claim1 found {out.get('cycles')} cycles, expected {op.expect['cycles']}"
    elif kind == "entropy-c6":
        if out.get("pass") is not True or out.get("gamma") != op.expect["gamma"]:
            return "c6 hypergraph chain failed"
    elif out.get("pass") is not True:
        return f"{kind} did not pass"
    return None

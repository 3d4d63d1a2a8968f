"""Pattern-family descriptors: named paths/cycles or an explicit graph."""

from __future__ import annotations

from .graph import Graph, parse_graph6


def parse_family(desc):
    """Return ("P", k), ("C", k) or ("H", Graph).

    Accepts "P5"/"C6"-style names, a graph6 string, or a Graph.
    """
    if isinstance(desc, Graph):
        return ("H", desc)
    if isinstance(desc, tuple) and len(desc) == 2 and desc[0] in ("P", "C", "H"):
        return desc
    if isinstance(desc, str):
        if len(desc) >= 2 and desc[0] in "PC" and desc[1:].isdigit():
            kind, k = desc[0], int(desc[1:])
            if kind == "P" and k < 2:
                raise ValueError(f"paths need at least 2 vertices, got {desc}")
            if kind == "C" and k < 3:
                raise ValueError(f"cycles need at least 3 vertices, got {desc}")
            return (kind, k)
        return ("H", parse_graph6(desc))
    raise ValueError(f"unrecognized family descriptor {desc!r}")


def family_graph(family) -> Graph:
    kind, arg = parse_family(family)
    if kind == "P":
        return Graph.path(arg)
    if kind == "C":
        return Graph.cycle(arg)
    return arg


def family_name(family) -> str:
    kind, arg = parse_family(family)
    if kind == "H":
        from .kernels import canonical_label

        return canonical_label(arg)
    return f"{kind}{arg}"

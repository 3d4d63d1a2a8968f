import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sysconfig

import pytest

from edgeind import Graph, kernels
from edgeind import _kernels_py

from helpers import random_graph

KERNELS_C = os.path.join(os.path.dirname(kernels.__file__), "_kernels.c")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel: the installed extension if there is one, else
    the tracked Cython output ``_kernels.c`` built with the C compiler
    Python was configured with."""
    try:
        from edgeind import _kernels

        return _kernels
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    include = sysconfig.get_paths()["include"]
    if not cc or shutil.which(cc[0]) is None or \
            not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or Python headers")
    target = tmp_path_factory.mktemp("kernels") / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")[1:]
    subprocess.run(cc + ["-O2", "-fPIC", "-I", include, KERNELS_C, "-o", str(target)]
                   + ldshared, check=True)
    spec = importlib.util.spec_from_file_location("edgeind._kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND != _kernels_py.BACKEND
    return module


def test_backends_agree_on_counts_and_lists(compiled):
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 11), rng.random())
        h = random_graph(rng, rng.randint(2, 5), 0.6)
        order = kernels.visit_order(h)
        pure = _kernels_py.count_ordered(g.adj, h.adj, order, [])
        fast = compiled.count_ordered(g.adj, h.adj, order, [])
        assert pure == fast
        assert _kernels_py.enumerate_ordered(g.adj, h.adj, order, []) == \
            compiled.enumerate_ordered(g.adj, h.adj, order, [])


def test_backends_agree_with_pins(compiled):
    rng = random.Random(32)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 10), 0.5)
        h = Graph.path(4)
        pins = [(0, rng.randrange(g.n)), (1, rng.randrange(g.n))]
        pats = [p for p, _ in pins]
        hosts = [v for _, v in pins]
        order = kernels.visit_order(h, pats)
        assert _kernels_py.count_ordered(g.adj, h.adj, order, hosts) == \
            compiled.count_ordered(g.adj, h.adj, order, hosts)


def test_enumerate_is_sorted_and_injective():
    g = Graph.cycle(5)
    copies = kernels.enumerate_ordered(g, Graph.path(3))
    assert copies == sorted(copies)
    assert all(len(set(c)) == 3 for c in copies)


def test_pins_force_prefix():
    g = Graph.cycle(6)
    copies = kernels.enumerate_ordered(g, Graph.path(4), pins=[(0, 0), (1, 1)])
    assert copies == [(0, 1, 2, 3)]
    assert kernels.count_ordered(g, Graph.path(4), pins=[(0, 0), (1, 2)]) == 0
    assert kernels.count_ordered(g, Graph.path(4), pins=[(0, 0), (1, 0)]) == 0
    # any sequence of pins; the memoised order is an immutable tuple
    assert kernels.visit_order(Graph.path(4), [1, 0]) == (1, 0, 2, 3)


def test_empty_and_undersized():
    g = Graph.cycle(4)
    assert kernels.count_ordered(g, Graph.empty(0)) == 1
    assert kernels.count_ordered(Graph.empty(2), Graph.cycle(3)) == 0


def test_full_64_vertex_host():
    g = Graph.complete_bipartite(32, 32)
    assert kernels.count_ordered(g, Graph.complete(2)) == 2 * 32 * 32

import io
import json

import pytest

from edgeind import Graph, write_graph6
from edgeind.cli import dispatch

C5 = write_graph6(Graph.cycle(5))
C6 = write_graph6(Graph.cycle(6))
P3 = write_graph6(Graph.path(3))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_alphaf_report():
    code, out, err = run(["alphaf", C5])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "alphaf"
    assert rep["outputs"]["alpha_f"] == "5/2"
    assert "wall_time" in err


def test_count_report():
    code, out, _ = run(["count", "--host", C5, "--pattern", P3])
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["unordered"] == 5


def test_rho_star(tmp_path):
    code, out, _ = run(["--cache-dir", str(tmp_path), "rho", "--pattern", P3, "-m", "5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["rho"] == 10
    star = write_graph6(Graph.complete_bipartite(1, 5))
    from edgeind import canonical_label

    assert canonical_label(Graph.complete_bipartite(1, 5)) in rep["outputs"]["extremal"]


def test_repeated_runs_byte_identical(tmp_path):
    args = ["--cache-dir", str(tmp_path), "rho", "--pattern", C5, "-m", "6"]
    _, first, _ = run(args)
    _, second, _ = run(args)
    assert first == second


def test_shards_do_not_change_bytes(tmp_path):
    a = run(["--cache-dir", str(tmp_path / "a"), "--shards", "1", "rho", "--pattern", C6, "-m", "7"])
    b = run(["--cache-dir", str(tmp_path / "b"), "--shards", "8", "rho", "--pattern", C6, "-m", "7"])
    assert a[0] == b[0] == 0
    assert a[1] == b[1]  # stdout payload identical; timing lives on stderr


def test_bad_search_options_are_usage_errors():
    for flag, value in (("--max-certificates", "-1"), ("--shards", "0"), ("--shards", "-2"),
                        ("--shards", "x")):
        with pytest.raises(SystemExit) as exc:
            run([flag, value, "rho", "--pattern", P3, "-m", "3"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["--json", "rho", "--pattern", P3, "-m", "3"])
    assert exc.value.code == 2
    code, out, _ = run(["--max-certificates", "0", "rho", "--pattern", P3, "-m", "3"])
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["extremal"] == [] and outputs["truncated"] is True


def test_bound_and_construct():
    code, out, _ = run(["bound", "--family", "C6", "-m", "36"])
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["effective_upper"]["value"] == 648.0
    code, out, _ = run(["construct", "--family", "C4", "-m", "100"])
    rep = json.loads(out)
    assert rep["outputs"]["count"] == 2025 and rep["outputs"]["edges"] <= 100


def test_sandwich_pass_and_exit_codes():
    code, out, _ = run(["sandwich", "--family", "C6", "-m", "9"])
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["pass"] is True
    code, _, err = run(["rho", "--pattern", P3, "-m", "13"])
    assert code == 3
    code, _, err = run(["bound", "--family", "C3", "-m", "4"])
    assert code == 2


def test_entropy_modes(tmp_path):
    for mode in (None, "chain", "shearer"):
        args = ["entropy", "--host", C5, "--pattern", C5]
        if mode:
            args += ["--verify", mode]
        code, out, _ = run(args)
        assert code == 0
        assert json.loads(out)["outputs"]["pass"] is True
    code, out, _ = run(["entropy", "--host", C6, "--pattern", write_graph6(Graph.path(5)), "--verify", "path"])
    assert code == 0
    csv_path = tmp_path / "ledger.csv"
    code, out, _ = run(["entropy", "--host", C6, "--pattern", C6, "--verify", "claim1", "--csv", str(csv_path)])
    assert code == 0
    assert json.loads(out)["outputs"]["within_fallback"] is True
    assert csv_path.read_text().startswith("edge,")
    code, out, _ = run(["entropy", "--host", C6, "--pattern", C6, "--verify", "c6"])
    assert code == 0


def test_entropy_empty_support_is_usage_error():
    k33 = write_graph6(Graph.complete_bipartite(3, 3))
    code, _, err = run(["entropy", "--host", k33, "--pattern", write_graph6(Graph.path(5)), "--verify", "path"])
    assert code == 2
    assert "no induced copy" in err


def test_table_mode():
    code, out, _ = run(["--table", "count", "--host", C5, "--pattern", P3])
    assert code == 0
    assert "unordered: 5" in out


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("EDGEIND_CACHE_DIR", str(tmp_path))
    code, out, _ = run(["rho", "--pattern", P3, "-m", "4"])
    assert code == 0
    assert list(tmp_path.iterdir())  # cache file written without --cache-dir


def test_count_copies_export():
    code, out, _ = run(["count", "--host", C5, "--pattern", P3, "--copies"])
    assert code == 0
    copies = json.loads(out)["outputs"]["copies"]
    assert len(copies) == 10 and all(len(c) == 3 for c in copies)

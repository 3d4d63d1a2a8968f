import dataclasses
import enum
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgeind import (BlowupSpec, Graph, automorphism_order, blow_up, canonical_label, cli,
                     kernels, search, write_graph6)
from edgeind import entropy as ent
from edgeind.cli import dispatch

from helpers import complete_bipartite, json_report_oracle

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
    assert err.rstrip().endswith(f" backend={kernels.BACKEND}")


def test_alphaf_on_a_long_odd_cycle():
    # an exhaustive {0, 1/2, 1} search over 41 vertices would run for hours
    code, out, _ = run(["alphaf", write_graph6(Graph.cycle(41))])
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["alpha_f"] == "41/2"
    assert list(outputs["weights"].values()) == [0.5] * 41
    assert outputs["weight_half"] == list(range(41))


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
    star = write_graph6(complete_bipartite(1, 5))
    from edgeind import canonical_label

    assert canonical_label(complete_bipartite(1, 5)) in rep["outputs"]["extremal"]


def test_repeated_runs_byte_identical(tmp_path):
    # one parser serves every dispatch in the process
    assert cli._build_parser() is cli._build_parser()
    for args in (["--cache-dir", str(tmp_path), "rho", "--pattern", C5, "-m", "6"],
                 ["construct", "--family", "C5", "-m", "20"],
                 ["--table", "bound", "--family", "P4", "-m", "10"]):
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


def test_no_argument_state_leaks_between_calls(monkeypatch):
    # every 5-edge class holds 5 induced edges, so all 26 are maximizers
    monkeypatch.delenv("EDGEIND_CACHE_DIR", raising=False)
    capped = json.loads(run(["--max-certificates", "1", "rho", "--pattern", "A_", "-m", "5"])[1])
    assert len(capped["outputs"]["extremal"]) == 1 and capped["outputs"]["truncated"]
    full = json.loads(run(["rho", "--pattern", "A_", "-m", "5"])[1])
    assert len(full["outputs"]["extremal"]) == 26 and not full["outputs"]["truncated"]
    table = run(["--table", "bound", "--family", "C6", "-m", "36"])[1]
    assert not table.startswith("{")
    assert run(["bound", "--family", "C6", "-m", "36"])[1].startswith("{")


def test_usage_error_after_a_successful_call(monkeypatch):
    monkeypatch.delenv("EDGEIND_CACHE_DIR", raising=False)
    assert run(["rho", "--pattern", P3, "-m", "3"])[0] == 0
    for argv in (["rho", "--pattern", P3], ["--shards", "0", "rho", "--pattern", P3, "-m", "3"],
                 ["count", "--host", "not graph6!", "--pattern", P3]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    assert run(["rho", "--pattern", P3, "-m", "3"])[0] == 0


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


def with_a_flagged_row(ledger):
    """The ledger with its first row flagged, as a row over a case cap is."""
    edge = ledger.rows[0].edge
    return dataclasses.replace(ledger, flagged=((edge, ("plus_0_exceeds_case_cap",)),))


def test_flagged_claim1_rows_are_reported(monkeypatch):
    ledger = with_a_flagged_row(ent.cycle_extension_ledger(Graph.cycle(6), tuple(range(6))))
    u, v = ledger.rows[0].edge
    # same bytes as json.dump of the ledger's (edge, flags) tuples
    tuples = {**ledger.to_json(), "flagged": list(ledger.flagged)}
    assert emitted(ledger.to_json()) == json.dumps(tuples, indent=2) + "\n"
    assert f"\nflagged:\n  - {u}\n  - {v}\n  - plus_0_exceeds_case_cap\nrows:\n" \
        in emitted(ledger.to_json(), table=True)
    real = ent.cycle_extension_ledger
    monkeypatch.setattr(ent, "cycle_extension_ledger",
                        lambda host, cycle: with_a_flagged_row(real(host, cycle)))
    argv = ["entropy", "--host", C6, "--pattern", C6, "--verify", "claim1"]
    code, out, _ = run(argv)
    assert code == 0
    assert [l["flagged"] for l in json.loads(out)["outputs"]["ledgers"]] \
        == [[[[u, v], ["plus_0_exceeds_case_cap"]]]]
    code, out, _ = run(["--table"] + argv)
    assert code == 0
    assert "  - plus_0_exceeds_case_cap\n" in out


def test_csv_without_claim1_is_usage_error(tmp_path):
    csv_path = tmp_path / "ledger.csv"
    for verify in ([], ["--verify", "chain"], ["--verify", "c6"]):
        with pytest.raises(SystemExit) as exc:
            run(["entropy", "--host", C6, "--pattern", C6, *verify, "--csv", str(csv_path)])
        assert exc.value.code == 2
    assert not csv_path.exists()


def test_negative_construct_budget_is_an_error():
    for family in ("P3", "P4", "P5", "C4", "C5", "C6", C5):
        code, out, err = run(["construct", "--family", family, "-m", "-1"])
        assert (code, out) == (2, "")
        assert err == "error: edge budget must be nonnegative\n", family


def test_unusable_paths_are_errors(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    missing = tmp_path / "missing" / "x.csv"
    for argv, exc in (
            (["--cache-dir", str(not_a_dir), "rho", "--pattern", "Bw", "-m", "3"],
             FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(not_a_dir))),
            (["entropy", "--host", C6, "--pattern", C6, "--verify", "claim1", "--csv", str(missing)],
             FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(missing)))):
        code, out, err = run(argv)
        assert (code, out, err) == (2, "", f"error: {exc}\n"), argv


def test_unusable_cache_dir_fails_before_the_search(tmp_path, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    searched = []
    monkeypatch.setattr(search, "_level", lambda *args: searched.append(args))
    message = f"error: {FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(not_a_dir))}\n"
    for argv in (["rho", "--pattern", "Bw", "-m", "10"], ["sandwich", "--family", "C5", "-m", "10"]):
        code, out, err = run(["--cache-dir", str(not_a_dir), *argv])
        assert (code, out, err) == (2, "", message), argv
    assert searched == []


def test_rejected_search_inputs_make_no_cache_dir(tmp_path):
    # the input errors come first, as without a cache, and leave nothing behind
    isolated = write_graph6(Graph(3, (0b10, 0b01, 0)))
    (tmp_path / "file").write_text("")
    for argv in (["rho", "--pattern", isolated, "-m", "3"], ["rho", "--pattern", "Bw", "-m", "40"]):
        for cache_dir in (tmp_path / "new", tmp_path / "file" / "sub"):
            assert run(["--cache-dir", str(cache_dir), *argv]) == run(argv), argv
            assert not cache_dir.exists()


def test_cache_takes_patterns_with_long_labels(tmp_path, monkeypatch):
    # a per-pattern file named by the quoted label of P36 would exceed the
    # file system's 255-byte name limit
    label = canonical_label(Graph.path(36))
    argv = ["rho", "--pattern", label, "-m", "3"]
    code, out, _ = run(argv)
    assert code == 0
    assert run(["--cache-dir", str(tmp_path), *argv])[:2] == (0, out)
    monkeypatch.setattr(search, "_level", lambda *args: pytest.fail("cache miss"))
    assert run(["--cache-dir", str(tmp_path), *argv])[:2] == (0, out)
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]


def test_cache_names_files_of_the_older_layout(tmp_path, capsys):
    # per-pattern files are not read; the first put names them once on
    # stderr, and stdout is what a fresh directory gives
    argv = ["rho", "--pattern", P3, "-m", "4"]
    _, out, _ = run(["--cache-dir", str(tmp_path / "fresh"), *argv])
    assert capsys.readouterr().err == ""
    old = tmp_path / "old"
    old.mkdir()
    label = canonical_label(Graph.path(3))  # its own quoted form, as the old file name
    stale = search.SearchResult(label, 4, 99, ("Ds",), False, 11).to_record()
    for name in (label, canonical_label(Graph.cycle(3))):
        (old / f"{name}.jsonl").write_text(json.dumps(stale) + "\n")
    for _ in range(2):
        assert run(["--cache-dir", str(old), *argv])[:2] == (0, out)
    assert run(["--cache-dir", str(old), "rho", "--pattern", P3, "-m", "5"])[0] == 0
    err = capsys.readouterr().err
    assert err == (f"warning: {old} holds per-pattern cache files of an older layout; "
                   "they are not read\n")


def test_cold_searches_import_neither_entropy_nor_the_pool(request):
    # a fresh process per command, on the compiled backend when it can be
    # built, where nothing within 64 vertices needs the pure twin; the
    # entropy names still import
    probe = (
        "import io, sys\n"
        "from edgeind import kernels\n"
        "from edgeind.cli import dispatch\n"
        "code = dispatch(sys.argv[1:], io.StringIO(), io.StringIO())\n"
        "print(code, kernels.BACKEND, *[name for name in ('edgeind.entropy',"
        " 'concurrent.futures', 'edgeind._kernels_py') if name in sys.modules])\n"
        "from edgeind import ClaimLedger\n"
        "print(ClaimLedger.__module__)\n"
    )
    try:
        path = str(request.getfixturevalue("built_lib"))
    except pytest.skip.Exception:
        path = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "EDGEIND_PURE"}
    env["PYTHONPATH"] = path
    for argv in (["rho", "--pattern", "Bw", "-m", "5"], ["sandwich", "--family", "C5", "-m", "6"],
                 ["--shards", "2", "rho", "--pattern", "Bw", "-m", "6"]):
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, backend, *loaded = proc.stdout.split("\n")[0].split()
        assert code == "0"
        assert loaded == ([] if backend == "c" else ["edgeind._kernels_py"]), argv
        assert proc.stdout.split("\n")[1:] == ["edgeind.entropy", ""], argv


def test_closed_stdout_is_an_error():
    # the reader is gone before the report is written (``| head`` that
    # exits early): exit 2 and one error line, no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "edgeind.cli", "sandwich", "--family", C5,
                               "-m", "6"], stdout=w, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout was closed before the report was written\n"


def test_shards_without_fork_are_a_usage_error(monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, err = run(["--shards", "2", "rho", "--pattern", P3, "-m", "4"])
    assert (code, out) == (2, "")
    assert err == "error: sharded growth needs os.fork, which this platform lacks\n"
    assert run(["rho", "--pattern", P3, "-m", "4"])[0] == 0


def test_entropy_empty_support_is_usage_error():
    k33 = write_graph6(complete_bipartite(3, 3))
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


# sha256 of the stdout of each command, taken before the pattern invariants
# were memoised and the duplicate entropy, matching and edge helpers were
# merged.  Hosts: C8[2^8] ("O]Ko...") and C6[2^6] ("K]Ko..."), the balanced
# blow-ups with parts of size 2.  Every alphaf graph but C5 ("Dhc") has a
# non-empty weight-0 side, so its matching is printed.  The P8 check on
# C9[2^9] ("Q]Ko...") and the P9 check on C10[2^10] ("S]Ko...") were pinned
# before the path check moved to integer edge columns; with P7 they reach
# a multi-step odd-edge chain and ``middle_evens_determined``.  The claim1
# ledgers of the uneven blow-up C6[3,3,2,2,2,2] ("MHGAsy...", 144 cycles)
# were pinned before the ledgers shared their work across a host's cycles.
STDOUT_SHA256 = {
    "alphaf Cs":
        "10c1ec187b1e1b030ce814a278da32d6f51546941150e03928f958e7536cb420",
    "alphaf Ch":
        "14ef6a44d2b459421a73a347d4a474ac173b427197abda2ed104a38783db66b2",
    "alphaf DhC":
        "d88a3c13a4b8679b3d95b6757a7738b78a718086c75bf3bb02a412bb638da3da",
    "alphaf D{C":
        "8eb1c1730ba5baa716dfc2c4e9e275d97c02f37cefc8150aa99544e64a3a78f9",
    "alphaf Dhc":
        "dbdc9db11488b736f1d6c61cfcb5b396ed2167e8ee7290cfaf5382026afa2395",
    "count --host O]KoWWB?o@_E?B?BW?]?E --pattern Ch":
        "de244d528f2814522d294f4e5e5ae7a2a419edaf0fe007b8fc52329609885f15",
    "entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern GhCGKC":
        "655e01aec72e22a331b5a0e0badb170a1b1e645992d42acef598648b7a803406",
    "entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern GhCGKC --verify chain":
        "fe06737053e8734c38c5fc7d2c3de5e9051e2a5b920ae1753767618edea9f4aa",
    "entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern GhCGKC --verify shearer":
        "6a9aa1939cf762817ccbf2099711b8a382574c0b2bb431f2fe2f425a02a0f7d6",
    "entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern DhC --verify path":
        "a7be11944cc9f6e3ce9932449486e0b2ce80e3fac6f27c68407518bdbe6df923",
    "entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern EhCG --verify path":
        "7c719dab4b5ec901f0f83eedf8f916bda91068d3c1f589b6a2f2fb9ab6e29f6a",
    "entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern FhCGG --verify path":
        "80f5e9eb2c2e9619a1ea1b61d3e762fd2ade3fec91c73cae07479a2e5ffdc564",
    "entropy --host Q]KoWWB?o@_E?B?B??W?Eo?N??o --pattern GhCGGC --verify path":
        "d8bd6020c0ca47b4d9733ca4f85013fe2f31779483cf2b9a05094931b131d05d",
    "entropy --host S]KoWWB?o@_E?B?B??W?E??K??u??]??W --pattern HhCGGC@ --verify path":
        "3b5b1f1437b830a73454ca1af771980219b84bc1826d76d23ee26243b5537029",
    "entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern GhCGKC --verify claim1":
        "83142eca3b0265b97b032a52917bdc0b3fc0cfbc599a566b76989e55c0c41972",
    "entropy --host K]KoWWB?u@wE --pattern EhEG":
        "08458dff47a9a92e86bb4a189d7ccfcccbcf10e657ab27fb1aaccac2028c8069",
    "entropy --host K]KoWWB?u@wE --pattern EhEG --verify chain":
        "152ea66b9098fc2e3fbfd3e25b135fc6b568afb61fe00edad5fcf4b8b5688fcb",
    "entropy --host K]KoWWB?u@wE --pattern EhEG --verify shearer":
        "c4eb8703ba750af1afd4b2cf350752bac11ccd9c4250928297bb16df13cdf59e",
    "entropy --host K]KoWWB?u@wE --pattern DhC --verify path":
        "d609e85c3ddf4f547f5cf711401aef5373df3e4a424dcdd9512c461ba520102e",
    "entropy --host K]KoWWB?u@wE --pattern EhEG --verify claim1":
        "e6e4be264ed65ade5309198b169f5ebd2cd0ee96109bc15e9bab19df5c650a52",
    "entropy --host K]KoWWB?u@wE --pattern EhEG --verify c6":
        "5f548e8a316c691d9b536cfe7216ed06559abc384116ad8cd1a2822c02746aca",
    "entropy --host MHGAsy[U@Cw`pAGd_ --pattern EhEG --verify claim1":
        "d527a9e257d5d7d9acfaf9505aff863be96f76e85c8c13950f7a5521e651abeb",
    "construct --family C6 -m 60":
        "173a1881211daf06d246494fa9f799f0dd1ad4d64c48131c17186d11bfa9c27d",
    "construct --family P5 -m 40":
        "1da81b3dae4a3e7ca1e061b8ebec7cd5f94acb236ed7048b7aaf4fc5a59f6e1e",
    "construct --family Cs -m 30":
        "00e91e903fe9faa814f67350d5f8955fe32ceff60050b62e099e57bbd2ccf958",
    "bound --family P5 -m 90":
        "93054311b4f5c1aa20935df2fb17336d7838d2742e613503872cb1653601404c",
    "bound --family C6 -m 36":
        "50fece96d4bcded4c25e477971b848640459d35fbe7372421609a97863276206",
    "bound --family C5 -m 50":
        "6e376e069d7dd0a58b8ffc4fe7bf358deaf979fa90db2b3053f4acb2430b5951",
    "bound --family D{C -m 20":
        "e2ace8e84953ec92a98267ccb4368fd0ea668f92c5348b07a7efc977355e68f7",
    "sandwich --family C6 -m 8":
        "d9dcbe1af09a6651c528da6d0aca5cff10d2e89c4403b21c3c7e1f2d420a8d08",
    "sandwich --family P4 -m 7":
        "73fb4f7e205178b543a21359b352d4ec229370a6bb00f9357f6518e17e73b211",
    "rho --pattern Bg -m 5":
        "c2576c8edd0269b9e38134c163a90f206547f432a87c04e7763ee673f1066d4e",
    "rho --pattern A_ -m 5":
        "8d15b4edef9d86a9f76ccd9baaa18276b9736d4429bf184cbe6c1e352210e61b",
    "rho --pattern Dhc -m 7":
        "1580f4f0b422f960c284327d11af107b76d96eb2ba44802c817e5636df727c7a",
}


# sha256 of the ``--table`` stdout of each command, taken while --table
# still printed a normalized copy of the report (the three path checks:
# before the path check moved to integer edge columns; the claim1 check:
# before the ledgers shared their work across a host's cycles).
TABLE_SHA256 = {
    "--table alphaf Dhc":
        "15a49f00668d8803287c87aa4cd08fdc8ccfa3e390c4a3c2e5050e3150803a25",
    "--table bound --family P5 -m 90":
        "56876f9a69ed6e6b4df98aa00c796c0ac9c4238f4b7a9466c23a75ce2798b635",
    "--table sandwich --family P4 -m 7":
        "f3fd8fddce9425dc6f32662b5821b63520c8db1b039cd4805e24e96610597fcd",
    "--table rho --pattern Dhc -m 7":
        "a3453709b18c412cb97b29db5f445bb6c14388cecae0eaeabb18ad10371bfdfe",
    "--table entropy --host K]KoWWB?u@wE --pattern EhEG --verify c6":
        "487c47693e182fb98e27cba4667147ec482109829516e6865333c276352ebee5",
    "--table entropy --host O]KoWWB?o@_E?B?BW?]?E --pattern FhCGG --verify path":
        "4f5d996cb3c8eb0d4c56db4bf8df866e0c0823890c3602521a3a5a7fcbf10eda",
    "--table entropy --host Q]KoWWB?o@_E?B?B??W?Eo?N??o --pattern GhCGGC --verify path":
        "5d2560d784a0cf1b4e9c4e58cd5b7f944a83e76bdf62ad13eef9d96480e99fde",
    "--table entropy --host S]KoWWB?o@_E?B?B??W?E??K??u??]??W --pattern HhCGGC@ --verify path":
        "22ab1fc29d75711abcb604c9a3e7fcba4e65aa74891ea1a2a1788d9856b0055b",
    "--table entropy --host MHGAsy[U@Cw`pAGd_ --pattern EhEG --verify claim1":
        "4c46b64869f75adfb72e2f0bfc8e84df8872b5682488c33d0089d978aca63ade",
}

# sha256 of the file ``--csv`` writes (the first cycle's ledger), pinned
# with the stdout of the same command above.
CSV_SHA256 = {
    "entropy --host MHGAsy[U@Cw`pAGd_ --pattern EhEG --verify claim1":
        "6f5814e000b1e44b084559687f120adf71f0abc32835754b42562c778c671699",
}


def test_stdout_digests_are_pinned(backends, monkeypatch):
    monkeypatch.delenv("EDGEIND_CACHE_DIR", raising=False)
    for backend in backends:
        # nothing computed under another backend is reused
        monkeypatch.setattr(kernels, "_impl", backend)
        monkeypatch.setattr(search, "_LEVELS", {})
        automorphism_order.cache_clear()
        for command, digest in {**STDOUT_SHA256, **TABLE_SHA256}.items():
            code, out, _ = run(command.split())
            assert code == 0, (backend.BACKEND, command)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (backend.BACKEND, command)


def test_csv_digests_are_pinned(backends, monkeypatch, tmp_path):
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        for command, digest in CSV_SHA256.items():
            path = tmp_path / f"{backend.BACKEND}.csv"
            code, out, _ = run(command.split() + ["--csv", str(path)])
            assert code == 0, (backend.BACKEND, command)
            assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, \
                (backend.BACKEND, command)


# -- the report writer against the standard library encoder --
#
# A report holds str-keyed dicts, lists, str, int, bool, None and float.


class Level(enum.IntEnum):
    LOW = 3


class Label(str):
    pass


class Ratio(float):
    pass


SPECIAL_TEXT = ["\\", '"', "[", "{", "O]KoWWB?o@_E?B?BW?]?E", "caf\u00e9", "\u2603",
                "\U0001f600", "\ud800", "\x00\x1f\x7f", "a\nb\tc", ""]
SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 0.1 + 0.2, 1 / 3,
                  2.0 / 3.0, 1e-300, 5e-324, 1.7976931348623157e308, 123456789012.5,
                  0.30000000000000004, 1e16, 1e22, -2.5e-7]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64 - 2, max_value=2 ** 200),
    st.integers(max_value=-1),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(SPECIAL_TEXT),
)
keys = st.one_of(st.text(max_size=6), st.sampled_from(SPECIAL_TEXT))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(keys, children, max_size=5),
        # lists of one scalar type, which are joined in one call
        st.lists(st.integers(), max_size=8),
        st.lists(st.text(max_size=4), max_size=8),
        st.lists(st.floats(), max_size=8),
        st.lists(st.booleans(), max_size=8),
        st.lists(st.none(), max_size=3),
    )


reports = st.recursive(scalars, containers, max_leaves=40)


def emitted(report, table=False):
    out = io.StringIO()
    cli._emit(report, table, out)
    return out.getvalue()


@settings(max_examples=500, deadline=None, database=None)
@given(reports)
def test_emit_matches_the_json_encoder(report):
    assert emitted(report) == json_report_oracle(report)


def test_emit_matches_the_json_encoder_on_deep_and_empty_nesting():
    deep = []
    for i in range(60):
        deep = [deep, {}] if i % 2 else {"k": deep, "e": []}
    for report in (deep, {}, [], {"a": {}, "b": [[]], "c": [{}]}, 7, "x", None, 1.5):
        assert emitted(report) == json_report_oracle(report)


def test_emit_matches_the_json_encoder_on_aliased_lists():
    # one list object at several places and depths, as a claim1 ledger's
    # rows share their lists
    texts = ["1/2", "0", "3/2"]
    ints = [0, 2, 5]
    mixed = [texts, 1.5, None]
    report = {"a": texts, "b": [texts, {"c": texts, "d": [texts, [texts, ints]]}],
              "e": ints, "f": [ints, ints, mixed], "g": {"h": mixed, "i": [mixed, texts]}}
    assert emitted(report) == json.dumps(report, indent=2) + "\n" == json_report_oracle(report)
    host = blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6))
    ledger = ent.cycle_extension_ledger(host, ent.induced_cycles(host, 6)[0]).to_json()
    rows = ledger["rows"]
    assert any(row["plus"] is rows[0]["plus"] for row in rows[1:])
    assert emitted(ledger) == json.dumps(ledger, indent=2) + "\n"
    assert emitted(report, table=True) == emitted(json.loads(json.dumps(report)), table=True)


OUTSIDE_VALUES = [(1, 2), Fraction(1, 2), frozenset(), Level.LOW, Label("g6"), Ratio(1 / 7)]
OUTSIDE_KEYS = OUTSIDE_VALUES + [1, 1.5, True, None]


def test_emit_rejects_types_outside_the_report_domain():
    cases = [(bad, report) for bad in OUTSIDE_VALUES
             for report in (bad, {"x": bad}, [bad], [bad, bad], {"x": [1, bad]},
                            {"x": [{}, {"y": bad}]})]
    cases += [(bad, report) for bad in OUTSIDE_KEYS
              for report in ({bad: 1}, {bad: []}, {"x": [{"y": {}, bad: "z"}]})]
    for bad, report in cases:
        for table in (False, True):
            with pytest.raises(TypeError, match=type(bad).__name__):
                emitted(report, table)

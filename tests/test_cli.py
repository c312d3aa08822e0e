import hashlib
import json
import os
import subprocess
import sys

import pytest

import girthlab
from girthlab import cli, write_graph6, petersen_graph
from girthlab.classify import BoundCheck


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_named_petersen(capsys):
    code, out, err = run_cli(capsys, "analyze", "named:petersen")
    assert code == 0
    report = json.loads(out)
    cls = report["graphs"][0]["classification"]
    assert cls["is_vgr"] and cls["lambda_vertex"] == 6
    assert cls["is_egr"] and cls["lambda_edge"] == 4
    assert cls["epsilon"] == 0
    assert report["summary"]["all_bounds_hold"]


def test_analyze_named_dodecahedron(capsys):
    code, out, _ = run_cli(capsys, "analyze", "named:dodecahedron")
    assert code == 0
    cls = json.loads(out)["graphs"][0]["classification"]
    assert cls["lambda_vertex"] == 3 and cls["epsilon"] == 3


def test_analyze_corrupt_file_exit_2(capsys, tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("C~\nDhc\n***not-a-graph***\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert ":3" in err  # diagnostic cites the offending line


def test_analyze_acyclic_graph_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "named:path(6)")
    assert code == 2 and out == ""
    assert "undefined for an acyclic graph" in err


def test_analyze_file_and_csv(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(write_graph6(petersen_graph()) + "\nC~\n")
    csv_path = tmp_path / "vertices.csv"
    code, out, _ = run_cli(capsys, "analyze", str(corpus), "--csv", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["count"] == 2
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "graph_index,input,vertex,girth_cycles,signature"
    assert len(rows) == 1 + 10 + 4
    assert rows[1].endswith(",6,4|4|4")


def test_analyze_internal_inconsistency_exit_3(capsys, monkeypatch):
    def forged_bounds(g, rep, profile=None):
        return [BoundCheck("per_vertex_cycles", 9, 6, "<=", -3, False)]

    monkeypatch.setattr(cli, "check_bounds", forged_bounds)
    code, out, err = run_cli(capsys, "analyze", "named:petersen")
    assert code == 3
    assert "engine bug" in err


def test_json_byte_stability(capsys):
    _, first, _ = run_cli(capsys, "analyze", "named:heawood")
    _, second, _ = run_cli(capsys, "analyze", "named:heawood")
    assert first == second
    _, stamped, _ = run_cli(capsys, "analyze", "named:heawood", "--timestamps")
    assert "generated_at" in stamped


def test_audit_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "audit", "named:petersen")
    assert code == 0 and json.loads(out)["summary"]["all_passed"]
    code, out, _ = run_cli(capsys, "audit", "named:dodecahedron", "--scope", "all")
    assert code == 0 and json.loads(out)["summary"]["all_passed"]
    code, out, _ = run_cli(capsys, "audit", "named:dodecahedron", "--lambda", "4")
    assert code == 1
    report = json.loads(out)
    assert not report["summary"]["all_passed"]
    entry = report["graphs"][0]
    assert all(not o["passed"] for o in entry["outer_edges"])


def test_audit_sampled_scope(capsys):
    # 5 of the dodecahedron's 200 exterior pairs: 3 dispatch to case B and 2
    # lie past distance 3; a forged count is still a finding (exit 1)
    code, out, _ = run_cli(capsys, "audit", "named:dodecahedron", "--scope", "sample:5,1")
    entry = json.loads(out)["graphs"][0]
    assert code == 0
    assert (entry["case_a_pairs"], entry["case_b_pairs"], entry["far_pairs"]) == (0, 3, 2)
    code, _, _ = run_cli(capsys, "audit", "named:dodecahedron", "--scope", "sample:5,1",
                         "--lambda", "4")
    assert code == 1


@pytest.mark.parametrize("extra, code, digest", [
    ((), 0, "08dc43768d4cc57f68d6890d4eba93abb9054ac8c1e6cfb5f64d5f545e07994c"),
    (("--lambda", "4"), 1, "c9ae18a7b364d05c9beeb938c6ccfbc7c80594f3eb0f9ba768d32ec7aac60866"),
])
def test_audit_full_records_are_pinned(capsys, extra, code, digest):
    # every record of the 120 case-B pairs (13 each) as the user sees it,
    # pinned before the kernels built slotted partitions; tool_version is
    # left out so that a version bump does not move the digest
    got, out, _ = run_cli(capsys, "audit", "named:dodecahedron", "--full-records", *extra)
    graphs = json.loads(out)["graphs"]
    assert got == code and len(graphs[0]["records"]) == 120 * 13
    assert hashlib.sha256(json.dumps(graphs).encode()).hexdigest() == digest


def test_audit_ineligible_graphs_reported_not_fatal(capsys, tmp_path):
    from girthlab import heawood_graph

    corpus = tmp_path / "corpus.g6"
    corpus.write_text(write_graph6(heawood_graph()) + "\n"
                      + write_graph6(petersen_graph()) + "\n")
    code, out, _ = run_cli(capsys, "audit", str(corpus))
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["count"] == 2
    assert report["summary"]["ineligible"] == 1
    assert not report["graphs"][0]["eligible"]
    assert report["graphs"][1]["eligible"]


def test_audit_bad_scope(capsys):
    code, _, err = run_cli(capsys, "audit", "named:petersen", "--scope", "some")
    assert code == 2 and "scope" in err


@pytest.mark.parametrize("command", [
    ("search", "--k", "3", "--max-n", "12", "--node-budget", "5", "--checkpoint",
     "{missing}/frontier.txt"),
    ("search", "--k", "3", "--max-n", "12", "--node-budget", "5", "--checkpoint", "{dir}"),
    ("analyze", "named:petersen", "--csv", "{missing}/vertices.csv"),
    ("audit", "named:petersen", "--scope", "sample:-5,1"),
])
def test_unusable_arguments_exit_2_with_one_line(capsys, tmp_path, command):
    # exit 1 is reserved for findings: a path that cannot be written or a
    # negative sample size is an input error
    args = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in command]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_search_petersen_hit(capsys):
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--g", "5",
                           "--max-n", "10", "--lambda", "6")
    assert code == 0
    report = json.loads(out)
    assert report["per_n_hits"] == {"10": 1}
    assert len(report["hits_graph6"]) == 1


def test_search_confirm_nonexistence(capsys):
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--g", "5",
                           "--max-n", "12", "--epsilon2", "2")
    assert code == 0
    report = json.loads(out)
    assert report["per_n_hits"] == {} and not report["theorem_contradiction"]


def test_search_below_moore_bound_is_empty(capsys):
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--g", "5", "--max-n", "3")
    assert code == 0
    assert json.loads(out)["per_n_classes"] == {}


def test_search_range_violation_exit_2(capsys):
    code, _, err = run_cli(capsys, "search", "--k", "1", "--max-n", "6")
    assert code == 2
    code, _, err = run_cli(capsys, "search", "--k", "3", "--g", "5",
                           "--max-n", "10", "--epsilon2", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "search", "--k", "3", "--g", "5",
                           "--max-n", "10", "--epsilon2", "2", "--lambda", "5")
    assert code == 2


def test_search_exact_lambda_above_the_vertex_bound_exit_2(capsys):
    # at most vertex_cycle_bound(3, 5) = 6 five-cycles meet at a vertex
    code, out, err = run_cli(capsys, "search", "--k", "3", "--g", "5", "--max-n", "16",
                             "--girth-mode", "exact", "--lambda", "40")
    assert code == 2 and out == ""
    assert err == "search: lambda 40 above the per-vertex maximum 6 for k=3, g=5\n"
    # girth at least 5 admits larger girths, whose bound is larger
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--g", "5", "--max-n", "10",
                           "--lambda", "7")
    assert code == 0 and json.loads(out)["per_n_hits"] == {}


def test_search_above_the_vertex_cap_exit_2(capsys, monkeypatch):
    # its checkpoint could not be read back, as graph6 refuses the order
    monkeypatch.delenv("GIRTHLAB_MAX_N", raising=False)
    code, out, err = run_cli(capsys, "search", "--k", "2", "--g", "66", "--max-n", "70")
    assert code == 2 and out == ""
    assert err == ("search: n_max 70 above the vertex cap 64; "
                   "raise GIRTHLAB_MAX_N for larger graphs\n")


def test_search_order_is_bounded_by_the_vertex_cap_alone(capsys):
    # a quartic search past 16 vertices runs as asked, and there is no
    # --cap option left to raise: the parser refuses it (exit 2)
    code, out, _ = run_cli(capsys, "search", "--k", "4", "--g", "5", "--max-n", "19")
    assert code == 0 and json.loads(out)["per_n_classes"] == {"19": 1}
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--k", "4", "--g", "5", "--max-n", "19", "--cap", "19"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --cap 19" in captured.err


def test_search_contradiction_exit_1(capsys, monkeypatch):
    from girthlab.search import SearchOutcome

    def fake_generate(config):
        out = SearchOutcome(per_n_hits={10: 1}, hits_graph6=["I?LRCecq?"])
        out.contradiction = True
        return out

    monkeypatch.setattr(cli, "generate", fake_generate)
    code, out, err = run_cli(capsys, "search", "--k", "3", "--g", "5",
                             "--max-n", "10", "--epsilon2", "2")
    assert code == 1
    assert "CONTRADICTION" in err


def test_exact_lambda_search_reports_a_contradicting_hit(capsys, monkeypatch):
    # with every vertex forged onto 5 five-cycles, the exact lambda = 5
    # search finds hits that the oracle excludes: a contradiction, exit 1,
    # as for the --epsilon2 2 search it equals
    from types import SimpleNamespace

    from girthlab import search

    monkeypatch.setattr(search, "girth_profile",
                        lambda graph: SimpleNamespace(per_vertex=(5,) * graph.n))
    code, out, err = run_cli(capsys, "search", "--k", "3", "--g", "5", "--max-n", "12",
                             "--girth-mode", "exact", "--lambda", "5")
    report = json.loads(out)
    assert code == 1 and "CONTRADICTION" in err
    assert report["per_n_hits"] == {"10": 1, "12": 2} and report["theorem_contradiction"]


def test_search_suspension_exit_4(capsys, tmp_path):
    # the n <= 12 tree has 19 nodes (29 before the lookahead pushed closed
    # children), so a budget of 13 (20 before) still suspends
    path = str(tmp_path / "frontier.txt")
    code, out, err = run_cli(capsys, "search", "--k", "3", "--g", "5",
                             "--max-n", "12", "--node-budget", "13",
                             "--checkpoint", path)
    assert code == 4
    assert json.loads(out)["suspended"]
    # resuming finishes the run
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--g", "5",
                           "--max-n", "12", "--checkpoint", path)
    assert code == 0
    assert json.loads(out)["per_n_classes"] == {"10": 1, "12": 2}


def test_resume_chain_with_fixed_budget_completes(capsys, tmp_path):
    path = str(tmp_path / "frontier.txt")
    args = ("search", "--k", "3", "--g", "5", "--max-n", "12",
            "--node-budget", "13", "--checkpoint", path)
    codes = []
    while not codes or codes[-1] == 4:
        assert len(codes) < 200, "resuming with a fixed budget makes no progress"
        code, out, _ = run_cli(capsys, *args)
        codes.append(code)
    assert codes[-1] == 0 and 4 in codes
    report = json.loads(out)
    assert report["per_n_classes"] == {"10": 1, "12": 2}
    assert not os.path.exists(path)


@pytest.mark.parametrize("command", [
    ("search", "--k", "3", "--max-n", "10"),
])
def test_workers_above_cpu_count_rejected(capsys, monkeypatch, command):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, *command, "--workers", "3")
    assert code == 2 and out == "" and "--workers 3" in err


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ("search", "--k", "3", "--max-n", "10"),
])
def test_non_positive_workers_rejected(capsys, command, workers):
    code, out, err = run_cli(capsys, *command, "--workers", workers)
    assert code == 2 and out == ""
    assert f"--workers {workers} must be at least 1" in err


def test_audit_has_no_workers_option(capsys):
    # the audit runs in one process, so --workers is an unknown argument,
    # refused by the parser with exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "named:dodecahedron", "--workers", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --workers 1" in captured.err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_non_positive_node_budget_rejected(capsys, tmp_path, budget):
    path = tmp_path / "frontier.txt"
    code, out, err = run_cli(capsys, "search", "--k", "3", "--max-n", "12",
                             "--node-budget", budget, "--checkpoint", str(path))
    assert code == 2 and out == "" and "node_budget must be at least 1" in err
    assert not path.exists()


def test_node_budget_without_checkpoint_exit_2(capsys, tmp_path, monkeypatch):
    # a suspended run resumes only from its checkpoint, so a budget without
    # one is refused before the search runs, and no file is left behind
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "search", "--k", "3", "--g", "5", "--max-n", "14",
                             "--node-budget", "50")
    assert code == 2 and out == ""
    assert "node_budget needs a checkpoint_path" in err
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--max-n", "14",
                           "--epsilon2", "2", "--node-budget", "50")
    assert code == 2 and out == ""
    assert os.listdir(tmp_path) == []


def test_search_epsilon2_reports_the_search_it_ran(capsys):
    code, out, _ = run_cli(capsys, "search", "--k", "3", "--g", "7",
                           "--girth-mode", "at-least", "--max-n", "10", "--epsilon2", "2")
    assert code == 0
    params = json.loads(out)["parameters"]
    assert params["g"] == 5 and params["girth_mode"] == "exact"
    assert params["lambda"] == 5 and params["epsilon2"] == 2


def test_oracle_lines(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k", "3", "--g", "5", "--lambda", "5")
    assert code == 0 and out.startswith("ExcludedByTheorem rule=Girth5")
    code, out, _ = run_cli(capsys, "oracle", "--k", "3", "--g", "5", "--lambda", "6")
    assert code == 0 and out.startswith("KnownToExist")
    code, out, _ = run_cli(capsys, "oracle", "--k", "4", "--g", "9", "--lambda", "161")
    assert code == 0 and out.startswith("ExcludedByTheorem rule=OddGirthGe7")
    code, _, err = run_cli(capsys, "oracle", "--k", "3", "--g", "5", "--lambda", "9")
    assert code == 2


def test_convert_round_trip(capsys, tmp_path):
    code, s6_out, _ = run_cli(capsys, "convert", "named:petersen", "--to", "sparse6")
    assert code == 0 and s6_out.startswith(":")
    path = tmp_path / "pet.s6"
    path.write_text(s6_out)
    code, g6_out, _ = run_cli(capsys, "convert", str(path), "--to", "graph6")
    assert code == 0
    assert g6_out.strip() == write_graph6(petersen_graph())


def test_stdout_carries_only_the_report(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("junk\n")
    code, out, err = run_cli(capsys, "analyze", str(corpus))
    assert code == 2
    assert out == ""
    assert err != ""


def test_module_entry_point_runs_the_command():
    # `python -m girthlab.cli` must run the command, not import and exit 0
    src = os.path.dirname(os.path.dirname(girthlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for extra, code in (((), 0), (("--lambda", "4"), 1)):
        done = subprocess.run(
            [sys.executable, "-m", "girthlab.cli", "audit", "named:dodecahedron", *extra],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == code, done.stderr
        assert json.loads(done.stdout)["summary"]["all_passed"] is (code == 0)

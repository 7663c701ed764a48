"""End-to-end command-line behavior and exit codes."""
import csv
import json
import subprocess
import sys

from treeiso.cli import main


def test_generate_profile_bounds_pipeline(tmp_path, capsys):
    tree_path = tmp_path / "tree.json"
    assert main(["generate", "complete_tary", "-p", "t=2", "-p", "d=3", "--out", str(tree_path)]) == 0
    assert json.loads(tree_path.read_text())["n"] == 7

    csv_path = tmp_path / "profile.csv"
    assert main(["profile", str(tree_path), "--format", "csv", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "i,b_e,b_v"
    assert lines[2] == "2,2,1"

    report_path = tmp_path / "report.json"
    assert main(["bounds", str(tree_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["bounds"]["p"] == 1
    assert report["pass"] is True


def test_generate_parent_list_format(tmp_path):
    tree_path = tmp_path / "tree.txt"
    assert main(["generate", "path", "-p", "n=3", "--format", "parent-list", "--out", str(tree_path)]) == 0
    assert tree_path.read_text() == "3\n0\n-1 0 1\n"
    # parent-list input is sniffed on read
    prof_path = tmp_path / "p.json"
    assert main(["profile", str(tree_path), "--format", "json", "--out", str(prof_path)]) == 0
    assert json.loads(prof_path.read_text())["edge"] == [1, 1, 0]


def test_generate_stdout(capsys):
    assert main(["generate", "star", "-p", "n=4"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"n": 4, "root": 0, "parent": [None, 0, 0, 0]}


def test_verify_mixed_sources(tmp_path):
    tree_path = tmp_path / "t.json"
    main(["generate", "path", "-p", "n=6", "--out", str(tree_path)])
    out_path = tmp_path / "suite.json"
    code = main(
        [
            "verify",
            str(tree_path),
            "--gen",
            "complete_tary:t=2,d=3",
            "--gen",
            "random_prufer:n=9,seed=4",
            "--seed",
            "11",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    suite = json.loads(out_path.read_text())
    assert suite["exit_status"] == 0
    assert len(suite["reports"]) == 3
    assert all(rep["pass"] for rep in suite["reports"])


def test_verify_malformed_file_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"root":0,"parent":[null,null]}')
    out_path = tmp_path / "suite.json"
    code = main(["verify", str(bad), "--gen", "path:n=4", "--out", str(out_path)])
    assert code == 2
    suite = json.loads(out_path.read_text())
    assert suite["errors"]
    assert len(suite["reports"]) == 1


def test_concatenated_parent_list_files_exit_2(tmp_path, capsys):
    """Two parent-list trees in one file are an input error, not the first
    tree's profile."""
    tree_path = tmp_path / "two.txt"
    tree_path.write_text("3\n0\n-1 0 1\n4\n0\n-1 0 1 2\n")
    assert main(["profile", str(tree_path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_verify_gen_above_dp_cap_is_a_generation_error(tmp_path):
    """--gen builds no tree larger than --dp-cap; the spec is reported as
    an input error, as a bad generator parameter is."""
    out_path = tmp_path / "suite.json"
    args = ["verify", "--gen", "path:n=50", "--gen", "path:n=60", "--dp-cap", "50"]
    assert main(args + ["--out", str(out_path)]) == 2
    suite = json.loads(out_path.read_text())
    assert [rep["tree"]["n"] for rep in suite["reports"]] == [50]
    assert suite["errors"] == [
        {"source": {"spec": "path:n=60"}, "error": "tree would have 60 vertices, above the limit of 50"}
    ]


def test_verify_deterministic_output(tmp_path):
    args = ["verify", "--gen", "random_recursive:n=12,seed=3", "--gen", "star:n=8", "--seed", "7"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_verify_csv_labels_generated_trees_by_spec(tmp_path):
    """Each --gen row of the suite CSV is labelled with the spec that
    regenerates its tree, so trees of one kind stay apart; file paths and
    failed specs keep their labels."""
    tree_path = tmp_path / "t.json"
    main(["generate", "path", "-p", "n=5", "--out", str(tree_path)])
    specs = ["complete_tary:t=2,d=3", "complete_tary:t=3,d=3", "random_prufer:n=9,seed=4"]
    args = ["verify", str(tree_path), "--gen", "star:n=5,seed=0", "--gen", "nosuch:n=3"]
    for spec in specs:
        args += ["--gen", spec]
    out_path = tmp_path / "suite.csv"
    assert main(args + ["--format", "csv", "--out", str(out_path)]) == 2
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert [row[0] for row in rows[1:]] == [str(tree_path), "star:n=5", *specs, "nosuch:n=3"]
    assert rows[-1][-1].startswith("error:")


def test_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["profile", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_without_inputs_is_usage_error(capsys):
    assert main(["verify"]) == 2
    assert "at least one tree" in capsys.readouterr().err


def test_negative_k_max_is_usage_error(tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    main(["generate", "path", "-p", "n=4", "--out", str(tree_path)])
    out_path = tmp_path / "out.json"
    assert main(["bounds", str(tree_path), "--k-max", "-3", "--out", str(out_path)]) == 2
    assert main(["verify", "--gen", "path:n=4", "--k-max", "-3", "--out", str(out_path)]) == 2
    assert "k_max must be >= 0" in capsys.readouterr().err
    assert not out_path.exists()


def test_bad_generator_params_is_usage_error(capsys):
    assert main(["generate", "complete_tary", "-p", "t=1", "-p", "d=2"]) == 2
    assert main(["generate", "path", "-p", "n=x"]) == 2


def test_unknown_generator_parameter_is_usage_error(tmp_path, capsys):
    """A key the kind does not read is an input error (exit 2), from
    generate and from verify --gen alike."""
    assert main(["generate", "random_prufer", "-p", "n=6", "-p", "sed=3"]) == 2
    assert "unknown generator parameter 'sed'" in capsys.readouterr().err
    # The seed is --seed, not a generator parameter.
    assert main(["generate", "random_prufer", "-p", "n=6", "-p", "seed=3"]) == 2
    assert "unknown generator parameter 'seed'" in capsys.readouterr().err
    out_path = tmp_path / "suite.json"
    assert main(["verify", "--gen", "path:n=5,foo=1", "--out", str(out_path)]) == 2
    suite = json.loads(out_path.read_text())
    assert suite["reports"] == []
    assert suite["errors"] == [
        {
            "source": {"spec": "path:n=5,foo=1"},
            "error": "unknown generator parameter 'foo' for path, expected ('n',)",
        }
    ]


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    tree_path = tmp_path / "t.json"
    main(["generate", "path", "-p", "n=4", "--out", str(tree_path)])
    assert main(["profile", str(tree_path), "--out", "/nonexistent-dir/x.csv"]) == 2


def test_paper_tables_small(tmp_path):
    out_path = tmp_path / "tables.csv"
    assert main(["paper-tables", "--dp-cap", "100", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("t,d,n,eta,edge_peak,vertex_peak,p,")
    assert len(lines) > 5


def test_paper_tables_with_no_tree_under_the_cap_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "tables.csv"
    for cap in ("-1", "0", "2"):
        for fmt in ("csv", "json"):
            args = ["paper-tables", "--dp-cap", cap, "--format", fmt, "--out", str(out_path)]
            assert main(args) == 2
            assert f"--dp-cap {cap} " in capsys.readouterr().err
            assert not out_path.exists()
    assert main(["paper-tables", "--dp-cap", "3", "--out", str(out_path)]) == 0
    assert len(out_path.read_text().splitlines()) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treeiso.cli", "generate", "path", "-p", "n=2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 2, "root": 0, "parent": [None, 0]}

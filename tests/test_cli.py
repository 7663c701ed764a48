"""End-to-end command-line behavior and exit codes."""
import csv
import json
import subprocess
import sys

import pytest

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


def test_json_array_tree_file_is_reported_as_json(tmp_path, capsys):
    """A tree file whose first non-blank byte is '[' is read as JSON, so a
    top-level array gets the JSON error, not a parent-list one."""
    tree_path = tmp_path / "array.json"
    tree_path.write_text("[1,2]\n")
    assert main(["profile", str(tree_path)]) == 2
    assert capsys.readouterr().err == "error: malformed json: top-level value must be an object\n"


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


def test_seed_changes_no_verify_output_and_bounds_has_no_seed(tmp_path, capsys):
    """verify accepts --seed, but no output depends on it; bounds has no
    --seed, so it is a usage error (exit 2)."""
    args = ["verify", "--gen", "random_prufer:n=30,seed=3", "--gen", "star:n=8"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(args + ["--seed", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    tree_path = tmp_path / "t.json"
    assert main(["generate", "path", "-p", "n=4", "--out", str(tree_path)]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["bounds", str(tree_path), "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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


def test_bad_generator_params_is_usage_error(capsys):
    assert main(["generate", "complete_tary", "-p", "t=1", "-p", "d=2"]) == 2
    assert main(["generate", "path", "-p", "n=x"]) == 2
    capsys.readouterr()
    assert main(["generate", "path", "-p", "n5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad parameter 'n5', expected KEY=VALUE\n"


def test_generator_parameters_take_ascii_decimal_integers_only(tmp_path, capsys):
    """int() would read each of these values; generate and verify --gen
    refuse them with exit 2."""
    out_path = tmp_path / "suite.json"
    for value in ("1_0", "+5", "\u0665", "\uff15", "5\xa0", "0x5"):
        assert main(["generate", "path", "-p", f"n={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parameter 'n' must be an integer, got {value!r}" in captured.err
        assert main(["verify", "--gen", f"path:n={value}", "--out", str(out_path)]) == 2
        assert json.loads(out_path.read_text())["reports"] == []
    assert main(["generate", "path", "-p", "n=-0"]) == 2
    assert "parameter n must be >= 1, got 0" in capsys.readouterr().err


# Each integer flag, in a command that succeeds when the flag reads 3 or 40.
INTEGER_FLAGS = [
    ("--dp-cap", ["paper-tables"]),
    ("--seed", ["generate", "path", "-p", "n=3"]),
    ("--max-vertices", ["generate", "path", "-p", "n=3"]),
    ("--seed", ["verify", "--gen", "path:n=5"]),
    ("--oracle-limit", ["verify", "--gen", "path:n=5"]),
]


@pytest.mark.parametrize("value", ["4_0", "+3", "\u0663", "\uff13"])
@pytest.mark.parametrize("flag, command", INTEGER_FLAGS)
def test_integer_flags_take_ascii_decimal_integers_only(tmp_path, capsys, flag, command, value):
    """int() would read each value as 40 or 3; every integer flag refuses it
    with exit 2 and names itself, under the rule of tree files."""
    out_path = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(command + [flag, value, "--out", str(out_path)])
    assert exit_info.value.code == 2
    assert f"argument {flag}: {value!r} is not an integer" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("flag, command", INTEGER_FLAGS)
def test_integer_flags_take_decimal_values(tmp_path, flag, command):
    out_path = tmp_path / "out"
    assert main(command + [flag, "3", "--out", str(out_path)]) == 0
    assert main(command + [flag, " 40\t", "--out", str(out_path)]) == 0


def test_non_decimal_tree_files_exit_2(tmp_path, capsys):
    """A parent-list file whose count is written 1_0 is not a 10-vertex
    tree, and a JSON file with a repeated key is malformed, not its last
    value: both exit 2."""
    underscore = tmp_path / "underscore.txt"
    underscore.write_text("1_0\n0\n-1 0 1 2 3 4 5 6 7 8\n")
    assert main(["profile", str(underscore)]) == 2
    assert capsys.readouterr().err == "error: malformed parent-list line 1: '1_0' is not an integer\n"
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"n": 2, "root": 0, "parent": [null, 0, 1], "n": 3}\n')
    assert main(["profile", str(repeated)]) == 2
    assert capsys.readouterr().err == "error: malformed json: repeated key 'n'\n"


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


def test_repeated_generator_parameter_is_usage_error(capsys):
    """A parameter given twice is an input error (exit 2); the last value
    does not silently win."""
    assert main(["generate", "path", "-p", "n=5", "-p", "n=6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter 'n' given twice" in captured.err


def test_repeated_gen_spec_parameter_is_an_error_entry(tmp_path):
    """verify --gen with a parameter given twice reports an error entry for
    the spec, not a tree built from the last value."""
    out_path = tmp_path / "suite.json"
    assert main(["verify", "--gen", "path:n=5,n=6", "--out", str(out_path)]) == 2
    suite = json.loads(out_path.read_text())
    assert suite["reports"] == []
    assert suite["errors"] == [
        {"source": {"spec": "path:n=5,n=6"}, "error": "parameter 'n' given twice"}
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

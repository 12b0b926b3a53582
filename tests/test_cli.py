"""The ``python -m repro`` command-line surface.

The help-drift gate: every registered subcommand must be documented
in README.md, and the expected command set must match the parser —
adding a subcommand without documenting it fails here.  The sweep flag
set is pinned the same way.
"""

import shutil
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_COMMANDS = {"check", "stats", "trace", "sweep", "report"}


def registered_commands():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices
    ]
    return set(subparsers.choices)


def test_help_lists_every_subcommand():
    assert registered_commands() == EXPECTED_COMMANDS
    help_text = build_parser().format_help()
    for command in EXPECTED_COMMANDS:
        assert command in help_text, command


def test_readme_documents_every_subcommand():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for command in EXPECTED_COMMANDS:
        assert command in readme, (
            f"README.md does not mention the `{command}` subcommand"
        )


def test_collectives_flag_on_every_cluster_command():
    """`--collectives {host,nic}` is part of the cluster surface:
    present on stats/trace and documented in README.md."""
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices
    ]
    for command in ("stats", "trace"):
        sub = subparsers.choices[command]
        (action,) = [a for a in sub._actions
                     if "--collectives" in a.option_strings]
        assert set(action.choices) == {"host", "nic"}, command
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "--collectives" in readme, (
        "README.md does not document the --collectives flag"
    )


def test_stats_cli_accepts_collectives_backend(capsys):
    assert main(["stats", "--nodes", "2", "--collectives", "nic"]) == 0
    assert "remote_writes" in capsys.readouterr().out


def test_sweep_cli_round_trip(tmp_path, capsys):
    """`sweep --only T1 --force` over a copy of the committed results
    recomputes T1 byte-identically and regenerates the document."""
    results_dir = tmp_path / "results"
    shutil.copytree(REPO_ROOT / "results", results_dir)
    out = tmp_path / "EXPERIMENTS.md"
    code = main([
        "sweep", "--only", "T1", "--force",
        "--results-dir", str(results_dir), "--out", str(out),
    ])
    assert code == 0
    assert (results_dir / "T1.json").read_bytes() \
        == (REPO_ROOT / "results" / "T1.json").read_bytes()
    assert out.read_bytes() \
        == (REPO_ROOT / "EXPERIMENTS.md").read_bytes()
    assert "1 ran" in capsys.readouterr().out


def test_sweep_cli_rejects_unknown_ids(tmp_path, capsys):
    code = main([
        "sweep", "--only", "NOPE",
        "--results-dir", str(tmp_path), "--out", str(tmp_path / "E.md"),
    ])
    assert code == 2
    assert "NOPE" in capsys.readouterr().err


def test_sweep_cli_rejects_empty_only_selection(tmp_path, capsys):
    """``--only ","`` used to silently sweep nothing with exit 0; an
    empty selection must now fail loudly, listing the known ids."""
    code = main([
        "sweep", "--only", ",",
        "--results-dir", str(tmp_path), "--out", str(tmp_path / "E.md"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "selected no experiments" in err
    assert "T1" in err  # the known-ids list is part of the message


def _sweep_subparser():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices
    ]
    return subparsers.choices["sweep"]


def _option_strings(parser):
    return {
        opt
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }


def test_sweep_distributed_flags_registered_and_documented():
    """The sweep flag drift gate: the parser registers exactly these
    options (none of the removed distributed executor's), and README.md
    mentions each one."""
    flags = _option_strings(_sweep_subparser())
    assert flags == {
        "--workers", "--only", "--force", "--retries", "--results-dir",
        "--out", "--render-only", "--list",
    }
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for flag in sorted(flags):
        assert flag in readme, (
            f"README.md does not document the `{flag}` sweep flag"
        )


@pytest.mark.parametrize("flag, value", [
    ("--workers", "0"),
    ("--retries", "-3"),
])
def test_sweep_cli_rejects_bad_workers_and_retries(tmp_path, capsys,
                                                   flag, value):
    """A worker count below 1 or a negative retry budget fails before
    any experiment runs: exit 2 and one stderr line naming the flag."""
    results_dir = tmp_path / "results"
    code = main([
        "sweep", "--only", "T1", "--force", flag, value,
        "--results-dir", str(results_dir), "--out", str(tmp_path / "E.md"),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert flag in captured.err and value in captured.err
    assert not results_dir.exists()


def test_sweep_cli_list_shows_grid_families(capsys):
    code = main(["sweep", "--list",
                 "--results-dir", str(REPO_ROOT / "results")])
    assert code == 0
    out = capsys.readouterr().out
    for family in ("T2/*", "S3/*", "X1/*", "W1/*", "W2/*"):
        assert family in out, family
    # Point counts and cache status per family.
    assert "| 4 | 4/4 |" in out
    assert "| 5 | 5/5 |" in out


def test_sweep_cli_list_respects_family_globs(capsys):
    code = main(["sweep", "--list", "--only", "W1/*",
                 "--results-dir", str(REPO_ROOT / "results")])
    assert code == 0
    out = capsys.readouterr().out
    assert "W1/*" in out
    assert "T2/*" not in out


# -- repro report ----------------------------------------------------------


def test_report_cli_check_passes_on_committed_aggregates(capsys):
    code = main(["report", "--check",
                 "--results-dir", str(REPO_ROOT / "results")])
    assert code == 0
    assert "aggregates up to date" in capsys.readouterr().out


def test_report_cli_regenerates_committed_aggregates(tmp_path, capsys):
    results_dir = tmp_path / "results"
    shutil.copytree(REPO_ROOT / "results", results_dir)
    shutil.rmtree(results_dir / "aggregates")
    code = main(["report", "--results-dir", str(results_dir)])
    assert code == 0
    for family in ("T2", "S3", "X1", "W1", "W2", "A2"):
        name = f"aggregates/{family}.json"
        assert (results_dir / name).read_bytes() \
            == (REPO_ROOT / "results" / name).read_bytes()
    assert "wrote 6 aggregates" in capsys.readouterr().out


def test_report_cli_check_fails_on_missing_aggregates(tmp_path, capsys):
    results_dir = tmp_path / "results"
    shutil.copytree(REPO_ROOT / "results", results_dir)
    shutil.rmtree(results_dir / "aggregates")
    code = main(["report", "--check", "--results-dir", str(results_dir)])
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_report_cli_rejects_unknown_family(capsys):
    code = main(["report", "--only", "Z9",
                 "--results-dir", str(REPO_ROOT / "results")])
    assert code == 2
    assert "Z9" in capsys.readouterr().err


def test_sweep_cli_render_only_requires_results(tmp_path, capsys):
    code = main([
        "sweep", "--render-only",
        "--results-dir", str(tmp_path), "--out", str(tmp_path / "E.md"),
    ])
    assert code == 1
    assert "sweep" in capsys.readouterr().err

"""The repo's own tree must lint clean — and deterministically.

This is the fast-tier gate behind the CI lint step: if a change
introduces unseeded randomness, a wall-clock read in simulation code, a
bare trace-kind literal, an unsorted directory enumeration, a version
bump without a reader accept-set, or an unmarked benchmark module, this
test (and ``python -m repro lint``) fails before the change merges.

Suppressions are per-line pragmas with justifications, never a baseline
file — so a clean run here means the tree is actually clean.
"""

from pathlib import Path

import pytest

from repro import cli
from repro.devtools.lint import ALL_RULES, render_json, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_PATHS = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]


@pytest.fixture(scope="module")
def tree_findings():
    """One lint run over the tree, shared by the tests of this module."""
    return run_lint(LINT_PATHS, ALL_RULES)


def test_src_and_benchmarks_lint_clean(tree_findings):
    assert tree_findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in tree_findings
    )


def test_lint_output_is_byte_identical_across_runs(tree_findings):
    first = render_json(tree_findings)
    second = render_json(run_lint(LINT_PATHS, ALL_RULES))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_cli_lint_exits_zero_on_clean_tree(capsys):
    assert cli.main(["lint", "--format", "json", *LINT_PATHS]) == 0
    payload = capsys.readouterr().out
    assert '"errors": 0' in payload


def test_cli_lint_reports_findings_with_exit_one(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    assert cli.main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "D001" in out


def test_cli_lint_rejects_unknown_rule(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert cli.main(["lint", "--select", "Z999", str(tmp_path)]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert cli.main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.rule_id in out

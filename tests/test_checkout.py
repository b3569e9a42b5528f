"""The checkout itself: git tracks no file that .gitignore excludes, and CI
runs the Tier-1 command, the benchmark's self-test, a check that src/
holds no ignored file, and the setup.py build of the C backend, on the
oldest Python that pyproject.toml admits among others, within a time
limit."""

from __future__ import annotations

import pathlib
import re
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    """A tracked file that .gitignore excludes is build output or was
    committed by mistake, and goes stale unnoticed."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or pathlib.Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout")
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_ci_runs_the_tier1_command():
    """The CI workflow runs the Tier-1 command that ROADMAP.md names."""
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert f"run: {command}\n" in workflow


def test_ci_runs_the_benchmark_self_test():
    """The CI workflow runs perfbench/selftest.py, which fails when a
    traced layer count changes between two runs or a workload's gate
    fails."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert "run: python3 perfbench/selftest.py\n" in workflow


def test_ci_keeps_src_free_of_ignored_files():
    """The CI job writes no bytecode, and after the tests and the
    self-test its clean-checkout step also fails on ignored files under
    src/: plain ``git status --porcelain`` cannot see a stray
    ``__pycache__/`` or built module there, and a built module switches
    every later import to the C backend."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert '    env:\n      PYTHONDONTWRITEBYTECODE: "1"\n    steps:\n' in workflow
    check = '          test -z "$(git status --porcelain --ignored src)"\n'
    assert check in workflow
    assert workflow.index("run: python3 perfbench/selftest.py") < workflow.index(check)
    assert workflow.index(check) < workflow.index("python setup.py build_ext --inplace")


def test_ci_builds_the_extension_with_setup_py():
    """The CI workflow's last step builds the extension in place with
    setup.py, after the clean-checkout check, and asserts that braidkit
    then runs on the C backend."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    build = "          python setup.py build_ext --inplace\n"
    check = """          PYTHONPATH=src python -c 'import braidkit; assert braidkit.backend_name() == "c"'\n"""
    assert workflow.endswith(build + check)
    assert workflow.index("git status --porcelain") < workflow.index(build)


def test_ci_tests_the_oldest_supported_python():
    """The CI job runs on a matrix of Pythons that includes the floor of
    pyproject.toml's requires-python, and every step uses that matrix."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    versions = re.search(r"^        python-version: \[(.*)\]$", workflow, re.M).group(1)
    assert f'"{floor}"' in versions.split(", ")
    assert "          python-version: ${{ matrix.python-version }}\n" in workflow


def test_ci_job_has_a_time_limit():
    """The tier1 job sets its own timeout, so a walk that never ends
    fails the job within 30 minutes instead of GitHub's 6-hour default."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert "  tier1:\n    runs-on: ubuntu-latest\n    timeout-minutes: 30\n" in workflow

"""The CI workflow runs each paper-scale input of the tests exactly once.

An input marked slow runs only under `python -m pytest -m slow`, and CI runs
each by node ID, so a renamed test, or a slow input that no step names, would
otherwise show only in CI.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def slow_steps(text):
    """{step name: [node ID, ...]} for each step that runs pytest -m slow."""
    steps = {}
    for block in re.split(r"^\s*- name: ", text, flags=re.M)[1:]:
        name, _, body = block.partition("\n")
        if "pytest -m slow" in body:
            steps[name] = re.findall(r"tests/\w+\.py::\w+", body)
    return steps


def slow_tests():
    """The node ID, without parameters, of each test with an input marked
    slow: the test itself, or one of its parametrize cases."""
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for name, test in vars(importlib.import_module(path.stem)).items():
            marks = getattr(test, "pytestmark", []) if name.startswith("test_") else []
            cases = [case for m in marks if m.name == "parametrize" for case in m.args[1]]
            marks = marks + [m for case in cases for m in getattr(case, "marks", ())]
            if any(m.name == "slow" for m in marks):
                found.append(f"tests/{path.name}::{name}")
    return found


def test_every_slow_input_runs_in_exactly_one_step():
    steps = slow_steps(WORKFLOW.read_text())
    assert len(steps) == 6
    named = [node for nodes in steps.values() for node in nodes]
    assert sorted(named) == sorted(slow_tests())


def test_no_step_puts_tests_on_sys_path():
    # a step reaches the tests' helpers only through pytest
    assert "sys.path" not in WORKFLOW.read_text()

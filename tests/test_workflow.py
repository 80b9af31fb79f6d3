"""The CI workflow names only test modules, tests and scripts that exist.

Tier-1 does not run the workflow, so a rename that leaves it naming a file
or test that is gone would first fail on the CI host. This reads
``tier1.yml`` as text, with a regex and no YAML parser.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# tests/<module>.py with any ::node suffix, and bench/<script>.py
REFERENCE = re.compile(r"\b((?:tests|bench)/[\w/]+\.py)((?:::\w+)*)")


def _exists(path, node):
    file = ROOT / path
    if not file.is_file():
        return False
    body = ast.parse(file.read_text(encoding="utf-8")).body
    for name in node.split("::")[1:]:
        found = [stmt for stmt in body if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                 and stmt.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_file_and_test_the_workflow_names_exists():
    refs = REFERENCE.findall(WORKFLOW.read_text(encoding="utf-8"))
    # the pattern still finds the one script the workflow names
    assert ("bench/run.py", "") in refs
    assert [path + node for path, node in refs if not _exists(path, node)] == []


def test_a_named_test_is_read_as_module_and_node():
    # the workflow's pytest step names no module, so a sample step that does
    # shows how one would be read and checked
    refs = REFERENCE.findall("pytest -q tests/test_golden.py::test_bulk_draws "
                             "tests/test_rng.py::TestGone::test_gone bench/gone.py")
    assert refs == [("tests/test_golden.py", "::test_bulk_draws"),
                    ("tests/test_rng.py", "::TestGone::test_gone"), ("bench/gone.py", "")]
    assert [_exists(path, node) for path, node in refs] == [True, False, False]

"""Self-test of the benchmark's report checker.

Run with:  python3 -m pytest -q bench/test_check.py

For one state of each workload, the report written by
``lodecomp decompose`` must pass the checker, and three wrong copies of it
must not: two branches merged into one, one weight off by 1e-6, and one
support turned by a small angle.  ``lodecomp verify`` must also exit 1 on
the turned copy, which the benchmark relies on.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import states  # noqa: E402
from lodecomp.cli import main  # noqa: E402


@pytest.fixture(scope="module", params=sorted(states.WORKLOADS))
def written(request, tmp_path_factory):
    """(case, state path, report document) for the workload's first state."""
    case = states.make_cases(request.param, seed=0)[0]
    work = tmp_path_factory.mktemp(request.param)
    state = work / "state.json"
    state.write_text(states.state_json(case))
    report = work / "report.json"
    assert main(["decompose", str(state), "--format", "json", "-o", str(report)]) == 0
    return case, state, json.loads(report.read_text())


def test_accepts_the_correct_report(written):
    case, _, document = written
    assert check.check_report(document, case) == []


def test_rejects_two_branches_merged(written):
    case, _, document = written
    merged = check.merge_branches(document)
    assert merged["branch_count"] == len(case.weights) - 1
    assert check.check_report(merged, case)


def test_rejects_one_weight_off_by_1e_6(written):
    case, _, document = written
    assert check.check_report(check.shift_weight(document, delta=1e-6), case)


@pytest.mark.parametrize("angle", [1e-3, 1e-6])
def test_rejects_one_support_turned(written, angle):
    case, _, document = written
    assert check.check_report(check.rotate_support(document, angle=angle), case)


def test_verify_rejects_the_turned_report(written, tmp_path):
    _, state, document = written
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(check.rotate_support(document, angle=1e-3)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(state), str(tampered)]) == 1

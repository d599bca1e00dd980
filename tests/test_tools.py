"""The report digest tool keeps running and stays a function of the bytes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_digest_per_path_label(capsys):
    tool = load_tool()
    assert tool.main(["--workload-seeds", "3", "--seeds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split()[0] for line in lines]
    assert labels == ["block-sbd", "eigenvector-graph", "schmidt"]
    for line in lines:
        digest, count = line.split()[1:3]
        assert len(digest) == 64 and int(digest, 16) >= 0 and int(count) % 3 == 0


def test_digests_repeat_and_follow_the_seeds():
    tool = load_tool()
    first = tool.digests([3], [0])
    assert tool.digests([3], [0]) == first
    # a second decomposition seed adds outputs to every label
    both = tool.digests([3], [0, 1])
    assert all(both[label][1] == 2 * first[label][1] for label in first)

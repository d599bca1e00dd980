"""The tools keep running: the report digest stays a function of the bytes,
and the line counter counts what it says."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name="report_digest"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_digest_per_path_label(capsys):
    tool = load_tool()
    assert tool.main(["--workload-seeds", "3", "--seeds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split()[0] for line in lines]
    assert labels == ["block-sbd", "eigenvector-graph", "schmidt", "layers"]
    for line in lines:
        digest, count = line.split()[1:3]
        assert len(digest) == 64 and int(digest, 16) >= 0 and int(count) > 0
        # a path label hashes every run in three formats
        assert line.startswith("layers") or int(count) % 3 == 0


def test_digests_repeat_and_follow_the_seeds():
    tool = load_tool()
    first = tool.digests([3], [0])
    assert tool.digests([3], [0]) == first
    # a second decomposition seed adds outputs to every label
    both = tool.digests([3], [0, 1])
    assert all(both[label][1] == 2 * first[label][1] for label in first)


def test_layer_digest_repeats_and_follows_the_layer_bytes(tmp_path, monkeypatch):
    tool = load_tool()
    first = tool.layer_digest([3], [0])
    assert tool.layer_digest([3], [0]) == first
    # one output per state with three or more subsystems
    states = [tool.StateFile.read(path).dims for _, path in tool.write_inputs(tmp_path, [3])]
    assert first[1] == sum(len(dims) >= 3 for dims in states)
    # the same blocks with their signs flipped: the same partitions, other bytes
    refine = tool.sbd_refine
    monkeypatch.setattr(tool, "sbd_refine", lambda *args, **kw: [-b for b in refine(*args, **kw)])
    flipped = tool.layer_digest([3], [0])
    assert flipped[1] == first[1] and flipped[0] != first[0]


SYNTHETIC = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment line
def area(r):
    """One-line docstring."""
    text = """a multi-line string
    that is code"""
    return math.pi * r**2, text


class Shape:
    """Class docstring.

    With a blank line inside.
    """

    sides = (
        3,
    )
'''


def test_src_lines_counts_code_without_docstrings_comments_or_blanks(tmp_path, capsys):
    tool = load_tool("src_lines")
    # code: the import, def, the two lines of `text`, return, class, and
    # the three lines of `sides`
    lines = len(SYNTHETIC.splitlines())
    assert tool.count(SYNTHETIC) == (lines, 9)
    (tmp_path / "shapes.py").write_text(SYNTHETIC)
    (tmp_path / "empty.py").write_text("")
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    total = str(lines)
    assert rows[1:] == [["empty.py", "0", "0"], ["shapes.py", total, "9"], ["total", total, "9"]]

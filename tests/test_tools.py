"""The tools keep running: the report digest stays a function of the bytes,
and the line counter counts what it says."""

import contextlib
import importlib.util
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name="report_digest"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGEST_ARGS = ["--workload-seeds", "3"]


@pytest.fixture(scope="module")
def printed_digests():
    """What one in-process ``main(DIGEST_ARGS)`` prints; shared by the tests
    that only read it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert load_tool().main(DIGEST_ARGS) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def seed_digests(printed_digests):
    """The path, ``verify`` and ``verify-oracle`` lines of ``printed_digests``,
    as ``digests([3])`` returns them: the baseline that fresh runs are
    compared with."""
    rows = (line.rsplit(None, 3) for line in printed_digests.splitlines())
    return {label: (digest, int(count)) for label, digest, count, _ in rows
            if label not in ("layers", "algebra", "oracle", "states", "reader")}


def test_one_digest_per_path_label(printed_digests, tmp_path):
    tool = load_tool()
    lines = printed_digests.splitlines()
    labels = [line.split()[0] for line in lines]
    assert labels == ["block-sbd", "eigenvector-graph", "schmidt", "verify", "verify-oracle",
                      "layers", "algebra", "oracle", "states", "reader"]
    counts = {}
    for label, line in zip(labels, lines):
        digest, count = line.split()[1:3]
        assert len(digest) == 64 and int(digest, 16) >= 0 and int(count) > 0
        counts[label] = int(count)
    # a path label hashes every run in three formats, verify runs on each
    # json report and its five tampered copies, and verify --oracle on each
    # json report
    assert all(counts[label] % 3 == 0 for label in labels[:3])
    reports = sum(counts[label] for label in labels[:3]) // 3
    assert counts["verify"] == 6 * reports
    assert counts["verify-oracle"] == reports
    # the algebra is hashed once on every catalog state with N >= 3 and two
    # or more branches
    catalog = tool.catalog_states().values()
    assert counts["algebra"] == sum(
        s.n_subsystems >= 3 and tool.maximal_decomposition(s).decomposition.n_branches >= 2
        for s in catalog
    )
    # the oracle once on every catalog state it takes
    assert counts["oracle"] == sum(s.total_dim <= tool.ORACLE_MAX_DIM for s in catalog)
    # the state writer is hashed once on every input state
    assert counts["states"] == len(tool.write_inputs(tmp_path, [3]))
    # the reader once on each malformed copy: every bad pair first and last,
    # and one NaN-then-true copy, in the state file and in the report
    assert counts["reader"] == 2 * (2 * len(tool.BAD_PAIRS) + 1)


def test_digests_repeat(seed_digests):
    assert load_tool().digests([3]) == seed_digests


def test_verify_passes_the_genuine_report_and_rejects_each_tamper(tmp_path):
    tool = load_tool()
    path = tmp_path / "z.json"
    tool.StateFile.from_state(tool.z_state((0.5, 0.3, 0.2)), name="z").write(path)
    out = tmp_path / "report.json"
    assert tool.decompose(path, "json", out)[0] == 0
    runs = tool.verify(path, out.read_bytes(), tmp_path)
    codes = {name: code for name, code, _ in runs}
    assert codes == {"genuine": 0, "weight": 1, "weights": 1, "entropy": 1, "dims": 2, "support": 1}
    text = {name: output.decode() for name, _, output in runs}
    assert text["genuine"].endswith("PASS\n")
    assert "report dims [3, 3, 4] do not match state dims [3, 3, 3]" in text["dims"]


def test_verify_digest_follows_the_verify_output(seed_digests, monkeypatch):
    tool = load_tool()
    first = seed_digests
    # without the tampered copies, only the genuine runs are hashed
    monkeypatch.setattr(tool, "tampered", lambda document: [])
    genuine = tool.digests([3])
    assert genuine["verify"][1] * 6 == first["verify"][1]
    assert genuine["verify"][0] != first["verify"][0]
    assert all(genuine[label] == first[label] for label in first if label != "verify")


def test_layer_digest_repeats_and_follows_the_layer_bytes(tmp_path, monkeypatch):
    tool = load_tool()
    first = tool.layer_digest([3])
    assert tool.layer_digest([3]) == first
    # one output per state with three or more subsystems
    states = [tool.StateFile.read(path).dims for _, path in tool.write_inputs(tmp_path, [3])]
    assert first[1] == sum(len(dims) >= 3 for dims in states)
    # the same blocks with their signs flipped: the same partitions, other bytes
    refine = tool.sbd_refine
    monkeypatch.setattr(tool, "sbd_refine", lambda *args, **kw: [-b for b in refine(*args, **kw)])
    flipped = tool.layer_digest([3])
    assert flipped[1] == first[1] and flipped[0] != first[0]


def test_algebra_outputs_hash_each_raise_by_its_exception(monkeypatch):
    tool = load_tool()
    state = tool.ghz_state()
    full = tool.maximal_decomposition(state).decomposition
    genuine = tool.algebra_outputs(state, full)
    # weight, vector and supports of the trivial branch, of the two merged
    # into one, then of the two fine-grained back
    per_branch = 2 + state.n_subsystems
    assert len(genuine) == (1 + 1 + 2) * per_branch

    def refused(*args):
        raise tool.InternalConsistencyError("refused")

    monkeypatch.setattr(tool.util, "coarse_grain", refused)
    out = tool.algebra_outputs(state, full)
    assert len(out) == per_branch + 2
    assert list(map(tool._value_bytes, out[:per_branch])) == list(
        map(tool._value_bytes, genuine[:per_branch]))
    assert out[per_branch:] == ["raised InternalConsistencyError: refused"] * 2


def test_root_digests_another_checkout(printed_digests, tmp_path, capsys):
    tool = load_tool()
    # a copy of this checkout's package, benchmark and test-side algebra,
    # digested from elsewhere
    for part in ("src", "bench"):
        shutil.copytree(TOOLS.parent / part, tmp_path / "copy" / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "copy" / "tests").mkdir()
    shutil.copy(TOOLS.parent / "tests" / "util.py", tmp_path / "copy" / "tests")
    run = subprocess.run([sys.executable, str(TOOLS / "report_digest.py"), "--root",
                          str(tmp_path / "copy"), *DIGEST_ARGS], capture_output=True, text=True,
                         cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == printed_digests
    # a root without the package is not quietly replaced by this checkout
    run = subprocess.run([sys.executable, str(TOOLS / "report_digest.py"), "--root",
                          str(tmp_path / "empty"), *DIGEST_ARGS], capture_output=True, text=True,
                         cwd=tmp_path)
    assert run.returncode != 0 and "No module named" in run.stderr
    # in process the package is already imported, so another root is refused
    with pytest.raises(SystemExit):
        tool.main(["--root", str(tmp_path / "copy"), *DIGEST_ARGS])
    assert "--root takes effect only when the tool runs as a script" in capsys.readouterr().err


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


def test_state_digest_repeats_and_follows_the_writer_bytes(monkeypatch):
    tool = load_tool()
    first = tool.state_digest([3])
    assert tool.state_digest([3]) == first
    write = tool.StateFile.to_json
    monkeypatch.setattr(tool.StateFile, "to_json", lambda self: write(self) + " ")
    changed = tool.state_digest([3])
    assert changed[1] == first[1] and changed[0] != first[0]


def test_reader_digest_repeats_and_follows_the_verify_output(printed_digests, monkeypatch):
    tool = load_tool()
    first = tool.reader_digest()
    assert f"{'reader':<18} {first[0]}  {first[1]} outputs" in printed_digests.splitlines()
    # every malformed copy is an input error that names its first bad pair
    outputs = {name: (code, text.decode()) for name, code, text in tool.reader_outputs()}
    assert all(code == 2 for code, _ in outputs.values())
    assert outputs["state NaN then true"][1] == "error: amps[0] must contain two finite numbers\n"
    assert outputs["report true at -1"][1] == (
        "error: branch 0 support 0 column 0[3] must contain two numbers\n")
    # one bad pair fewer: four outputs fewer, and another digest
    monkeypatch.delitem(tool.BAD_PAIRS, "5")
    fewer = tool.reader_digest()
    assert fewer[1] == first[1] - 4 and fewer[0] != first[0]

"""The benchmark's per-layer trace must keep seeing the layers it times.

``bench/tracer.py`` rebinds package functions by name; a refactor that
renames one, or stops calling it through its module, would silently zero a
per-layer span in the benchmark's traced run.  The traced run also calls
the SBD and assembly layers directly, and those calls must keep working.
"""

import contextlib
import importlib
import io

from lodecomp import cli
from lodecomp.catalog import dress_state, z_state
from lodecomp.decomposition import assemble_branches, maximal_decomposition, sbd_refine
from lodecomp.fileio import StateFile

import util  # noqa: F401  (puts bench/ on the path)
import states  # noqa: E402
import tracer  # noqa: E402


def test_trace_targets_resolve():
    for module_name, attr in tracer.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)


def test_traced_decomposition_records_layer_spans():
    state = dress_state(z_state((0.5, 0.3, 0.2)), seed=3)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        maximal_decomposition(state)
    finally:
        recorder.uninstall()
    names = {name for name, _, _ in recorder.take()}
    assert {"build_correlation_graph", "verify_lo", "local_spectrum"} <= names


def test_traced_round_trip_records_file_io_spans(tmp_path):
    # the benchmark's fileio.* metrics are read off these spans of its
    # in-process decompose -> verify round trip
    state = tmp_path / "state.json"
    report = tmp_path / "report.json"
    state.write_text(states.state_json(states.make_cases("nondegenerate", 5)[0]))
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert cli.main(["decompose", str(state), "--format", "json", "-o", str(report)]) == 0
        decompose = {name for name, _, _ in recorder.take()}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(state), str(report)]) == 0
        verify = {name for name, _, _ in recorder.take()}
    finally:
        recorder.uninstall()
    written = {"StateFile.read", "maximal_decomposition", "report_document", "report_to_json"}
    assert written <= decompose
    assert {"StateFile.read", "parse_report", "branches_from_report"} <= verify


def test_bench_direct_layer_calls(tmp_path):
    # the traced run calls sbd_refine(state, n) and assemble_branches(state,
    # parts) by these signatures, on the state read back from its file
    path = tmp_path / "state.json"
    path.write_text(states.state_json(states.make_cases("degenerate", 5)[0]))
    state = StateFile.read(path).to_state()
    parts = [sbd_refine(state, n) for n in range(state.n_subsystems)]
    assert [len(p) for p in parts] == [2, 2, 2]
    assert assemble_branches(state, parts).n_branches == 2

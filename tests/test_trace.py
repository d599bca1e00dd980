"""The benchmark's per-layer trace must keep seeing the layers it times.

``bench/tracer.py`` rebinds package functions by name; a refactor that
renames one, or stops calling it through its module, would silently zero a
per-layer span in the benchmark's traced run.  The traced run also calls
the SBD and assembly layers directly, and those calls must keep working.
"""

import contextlib
import importlib
import io

import numpy as np

from lodecomp import cli
from lodecomp.catalog import dress_state, z_state
from lodecomp.decomposition import (
    _checked_frames,
    assemble_branches,
    build_correlation_graph,
    maximal_decomposition,
    sbd_refine,
)
from lodecomp.fileio import StateFile
from lodecomp.tolerances import DEFAULT_TOLERANCES

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
    # the benchmark's decomposition.graph_nodes and graph_edges are read off
    # the kept result of the build_correlation_graph span: it must be the
    # graph the pipeline built its branches from
    state = dress_state(z_state((0.5, 0.3, 0.2)), seed=3)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        result = maximal_decomposition(state)
    finally:
        recorder.uninstall()
    spans = recorder.take()
    names = {name for name, _, _ in spans}
    assert {"build_correlation_graph", "verify_lo", "local_spectrum"} <= names
    (graph,) = [kept for name, _, kept in spans if name == "build_correlation_graph"]
    blocks = [sbd_refine(state, n) for n in range(state.n_subsystems)]
    assert len(graph.nodes) == sum(map(len, blocks)) == 9
    frames = _checked_frames(state, blocks, DEFAULT_TOLERANCES.t_supp)
    assert graph.edges == build_correlation_graph(state, frames).edges and len(graph.edges) == 9
    assert len(graph.components) == result.decomposition.n_branches == 3
    # the branches come from the kept graph's supports, so the two cannot drift
    assert len(graph.supports) == result.decomposition.n_branches
    for br in result.decomposition.branches:
        assert any(
            all(map(np.array_equal, br.supports, supports)) for supports in graph.supports
        )
    assert result.diagnostics.min_accepted_edge == min(w for _, _, w in graph.edges)


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

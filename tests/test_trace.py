"""The benchmark's per-layer trace must keep seeing the layers it times.

``bench/tracer.py`` rebinds package functions by name; a refactor that
renames one, or stops calling it through its module, would silently zero a
per-layer span in the benchmark's traced run.  The traced run also calls
the SBD and assembly layers directly, and those calls must keep working.
"""

import importlib

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


def test_bench_direct_layer_calls(tmp_path):
    # the traced run calls sbd_refine(state, n) and assemble_branches(state,
    # parts) by these signatures, on the state read back from its file
    path = tmp_path / "state.json"
    path.write_text(states.state_json(states.make_cases("degenerate", 5)[0]))
    state = StateFile.read(path).to_state()
    parts = [sbd_refine(state, n) for n in range(state.n_subsystems)]
    assert [len(p) for p in parts] == [2, 2, 2]
    assert assemble_branches(state, parts).n_branches == 2

"""One sha256 per path label over `lodecomp decompose` output, and one over `verify`.

Runs `decompose` in-process, in json, table and csv format, on the
benchmark workloads' states and on catalog states (plain and dressed),
and hashes every output of one path label
(`schmidt`, `eigenvector-graph`, `block-sbd`) in a fixed order.  Two
checkouts that print the same digest for a label wrote byte-identical
output for every state of that label.  A run that exits non-zero is
hashed under `exit <code>` with its standard error.

The `verify` label digests `lodecomp verify` on every json report those
runs write: its exit code, standard output and standard error on the
genuine report and on fixed tampered copies of it (one branch weight,
one `weights[]` entry, `entropy_bits` and the report `dims` changed, and
one support column turned by 1e-3 rad toward the next branch's, as
`bench/check.py`'s `rotate_support` turns it).

The `verify-oracle` label digests `lodecomp verify --oracle` on every
genuine json report: its exit code, standard output and standard error.
On a state above `ORACLE_MAX_DIM` that is exit 2 and the oracle's message.

The `layers` label digests the layer API on the same states with three or
more subsystems: the `sbd_refine` blocks of every subsystem, then, from
those blocks, the weights, vectors and supports of `assemble_branches` and
the edges, components and edge margins of the graph it builds, kept from
its `build_correlation_graph` call by `bench/tracer.py`'s `Tracer`, so no
call depends on that function's signature.  Arrays are hashed by their
bytes, floats by their round-trip repr, and a state whose calls raise by
the exception.

The `algebra` label digests the decomposition algebra, the test-side
helpers of `tests/util.py`, on the catalog states (plain and dressed) with
three or more subsystems whose maximal decomposition has two or more
branches: the weights, vectors and supports of `trivial_decomposition`, of
`coarse_grain` with branches 0 and 1 merged, and of `common_fine_graining`
of that coarse-graining and the one that merges branches 1 to k - 1.  Each
call that raises is hashed by its exception.

The `oracle` label digests the brute-force reference on the catalog
states (plain and dressed) of total dimension at most `ORACLE_MAX_DIM`:
the weights, vectors and supports of `oracle_maximal_nondegenerate`, then
the verdict and detail of `oracle_verify_maximality_small` on the maximal
decomposition and on the one that merges branches 0 and 1, each call that
raises hashed by its exception.

The `states` label digests the state writer: `StateFile.to_json` of every
input state above (workload, catalog and dressed), each re-read through
`StateFile.from_json`.

The `reader` label digests `lodecomp verify` on a fixed malformed corpus
built from the `ghz-3x4-dressed-0` catalog state file and its genuine
report: its exit code, standard output and standard error.  Each of ten
bad pairs (a `true`, `"1"`, `null`, `NaN`, `Infinity` or `10**400` real
part, `[1.0]`, `[1.0, 0.0, 0.0]`, `5` and `{}`) replaces the first and the
last amplitude of the state file, then the first and the last entry of
the report's first support column; one more copy of each file holds a NaN
pair before a `true` one.

    python3 tools/report_digest.py                       # workload seeds 0-4
    python3 tools/report_digest.py --workload-seeds 3,11
    python3 tools/report_digest.py --root ../other       # another checkout

It imports the package from `DIR/src`, the workload states from
`DIR/bench` and the algebra from `DIR/tests`, DIR being `--root` when run
as a script and this tool's own checkout otherwise, and writes only to a
temporary directory.  So one copy
of the tool digests two checkouts with the same tampered copies and states.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, so the bits do not depend on the
# machine's core count; set before numpy is imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _root_option(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to digest: its src/, bench/ and tests/ "
                             "(default: this tool's)")
    return parser


if __name__ == "__main__":  # the package is imported from --root, so read it first
    ROOT = _root_option(argparse.ArgumentParser(add_help=False)).parse_known_args()[0].root
    ROOT = ROOT.resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from lodecomp import assemble_branches, cli, maximal_decomposition, sbd_refine  # noqa: E402
from lodecomp.catalog import (  # noqa: E402
    dress_state,
    ghz_state,
    product_state,
    random_state,
    u_state,
    v_state,
    w_state,
    x_state,
    z_state,
)
from lodecomp.errors import InternalConsistencyError, UnsupportedOperationError  # noqa: E402
from lodecomp.fileio import StateFile  # noqa: E402
from lodecomp.oracle import (  # noqa: E402
    ORACLE_MAX_DIM,
    OracleVerdict,
    oracle_maximal_nondegenerate,
    oracle_verify_maximality_small,
)

import check  # noqa: E402
import states  # noqa: E402
import tracer  # noqa: E402
import util  # noqa: E402

FORMATS = ("json", "table", "csv")
ERRORS = (ValueError, InternalConsistencyError, UnsupportedOperationError)


def catalog_states() -> dict:
    plain = {
        "ghz": ghz_state(),
        "ghz-3x4": ghz_state(3, 4),
        "ghz-4": ghz_state(4),
        "w": w_state(),
        "w-4": w_state(4),
        "z": z_state((0.5, 0.3, 0.2)),
        "z-4x4x4": z_state((0.4, 0.3, 0.2, 0.1), dims=(4, 4, 4)),
        "u": u_state(),
        "v": v_state(),
        "x": x_state(),
        "product": product_state((2, 3, 2), split=1, seed=3),
        "random-2x3x4": random_state((2, 3, 4), seed=5),
        "random-3x4": random_state((3, 4), seed=1),
        "bell-like-4x4": ghz_state(2, 4),
        # two weights 5e-9 apart (non-unique) and 1.2e-8 apart (unique): one
        # state on each side of t_deg = 1e-8
        "z-2-within-t_deg": z_state((0.98, 0.01 + 2.5e-9, 0.01 - 2.5e-9), 2),
        "z-2-beyond-t_deg": z_state((0.5 + 6e-9, 0.5 - 6e-9), 2),
    }
    out = dict(plain)
    for name in ("ghz-3x4", "z-4x4x4", "x", "w-4", "bell-like-4x4"):
        for seed in range(3):
            out[f"{name}-dressed-{seed}"] = dress_state(plain[name], seed=seed)
    return out


def write_inputs(work: Path, workload_seeds) -> list:
    """State files, in a fixed order, as (name, path)."""
    files = []
    for workload in sorted(states.WORKLOADS):
        for seed in workload_seeds:
            for k, case in enumerate(states.make_cases(workload, seed)):
                path = work / f"{workload}-{seed}-{k}.json"
                path.write_text(states.state_json(case))
                files.append((path.stem, path))
    for name, state in catalog_states().items():
        path = work / f"{name}.json"
        StateFile.from_state(state, name=name).write(path)
        files.append((name, path))
    return files


def decompose(path: Path, fmt: str, out: Path):
    """(exit code, output bytes or standard error) of one decompose call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["decompose", str(path), "--format", fmt, "-o", str(out)])
    return code, out.read_bytes() if code == 0 else err.getvalue().encode()


def tampered(document: dict) -> list:
    """(name, document) of each fixed tampered copy of a genuine report."""
    copies = {name: copy.deepcopy(document) for name in ("weight", "weights", "entropy", "dims")}
    copies["weight"]["branches"][0]["weight"] += 1e-6
    copies["weights"]["weights"][0] += 1e-6
    copies["entropy"]["entropy_bits"] += 1e-6
    copies["dims"]["dims"][-1] += 1
    copies["support"] = check.rotate_support(document, angle=1e-3)
    return list(copies.items())


def run_verify(path: Path, report: bytes, work: Path, *flags) -> tuple:
    """(exit code, standard output and error) of one ``verify`` call on ``report``."""
    (work / "report.json").write_bytes(report)
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
        code = cli.main(["verify", str(path), str(work / "report.json"), *flags])
    return code, stream.getvalue().encode()


def verify(path: Path, report: bytes, work: Path) -> list:
    """(name, exit code, standard output and error) of ``verify`` on the
    genuine report and on each of its tampered copies."""
    reports = [("genuine", report)]
    reports += [(name, json.dumps(doc).encode()) for name, doc in tampered(json.loads(report))]
    return [(name, *run_verify(path, text, work)) for name, text in reports]


def digests(workload_seeds) -> dict:
    """{label: (sha256 hex digest, number of outputs)}."""
    hashes, counts = {}, {}

    def add(label, header, text):
        digest = hashes.setdefault(label, hashlib.sha256())
        digest.update(f"{header} bytes={len(text)}\n".encode())
        digest.update(text)
        counts[label] = counts.get(label, 0) + 1

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "out"
        for name, path in write_inputs(work, workload_seeds):
            code, text = decompose(path, "json", out)
            label = json.loads(text)["diagnostics"]["path"] if code == 0 else f"exit {code}"
            outputs = [("json", code, text)]
            if code == 0:
                for tamper, vcode, vtext in verify(path, text, work):
                    add("verify", f"{name} {tamper} exit={vcode}", vtext)
                vcode, vtext = run_verify(path, text, work, "--oracle")
                add("verify-oracle", f"{name} exit={vcode}", vtext)
                outputs += [(fmt, *decompose(path, fmt, out)) for fmt in FORMATS[1:]]
            for fmt, code, text in outputs:
                add(label, f"{name} {fmt} exit={code}", text)
    return {label: (hashes[label].hexdigest(), counts[label]) for label in sorted(hashes)}


def layer_outputs(state) -> list:
    """The layer API's outputs on one state, in a fixed order: the
    ``sbd_refine`` blocks, then the branches ``assemble_branches`` builds
    from them and the graph it builds on the way, as the benchmark's
    ``Tracer`` keeps it."""
    partitions = [sbd_refine(state, n) for n in range(state.n_subsystems)]
    recorder = tracer.Tracer()
    recorder.install(targets=[("lodecomp.decomposition", "build_correlation_graph")])
    try:
        decomposition = assemble_branches(state, partitions)
    finally:
        recorder.uninstall()
    ((_, _, graph),) = recorder.take()
    out = [b for per_subsystem in partitions for b in per_subsystem]
    for branch in decomposition.branches:
        out += [branch.weight, branch.vector, *branch.supports]
    return out + [graph.edges, graph.components, graph.min_accepted_edge, graph.max_rejected_edge]


def algebra_outputs(state, full) -> list:
    """The algebra's outputs on one state whose maximal decomposition
    ``full`` has k >= 2 branches, in a fixed order: each decomposition's
    branch weights, vectors and supports, or the exception a call raised."""
    k = full.n_branches
    merged = [[0, 1], *([i] for i in range(2, k))]
    calls = [
        lambda: util.trivial_decomposition(state),
        lambda: util.coarse_grain(full, merged),
        lambda: util.common_fine_graining(util.coarse_grain(full, merged),
                                          util.coarse_grain(full, [[0], list(range(1, k))])),
    ]
    return call_outputs(calls)


def oracle_outputs(state) -> list:
    """The oracle's outputs on one state, in a fixed order: the branch
    weights, vectors and supports of ``oracle_maximal_nondegenerate``, then
    the verdict and detail of ``oracle_verify_maximality_small`` on the
    maximal decomposition and on the one that merges branches 0 and 1, or
    the exception a call raised."""
    full = maximal_decomposition(state).decomposition
    merged = [[0, 1], *([i] for i in range(2, full.n_branches))]
    calls = [
        lambda: oracle_maximal_nondegenerate(state),
        lambda: oracle_verify_maximality_small(full),
        lambda: oracle_verify_maximality_small(util.coarse_grain(full, merged)),
    ]
    return call_outputs(calls)


def call_outputs(calls) -> list:
    """What each call returns, in order: a decomposition's branch weights,
    vectors and supports, an oracle verdict and its detail, or the
    exception the call raised."""
    out = []
    for call in calls:
        try:
            result = call()
        except ERRORS as exc:
            out.append(f"raised {type(exc).__name__}: {exc}")
            continue
        if isinstance(result, OracleVerdict):
            out += [result.verdict, result.detail]
            continue
        for branch in result.branches:
            out += [branch.weight, branch.vector, *branch.supports]
    return out


def catalog_digest(label: str, outputs) -> tuple:
    """(sha256 hex digest, number of outputs) of ``outputs(state)`` on each
    catalog state for which it does not return None, one output per state."""
    digest, count = hashlib.sha256(), 0
    for name, state in catalog_states().items():
        values = outputs(state)
        if values is None:
            continue
        text = b"".join(map(_value_bytes, values))
        digest.update(f"{name} {label} bytes={len(text)}\n".encode())
        digest.update(text)
        count += 1
    return digest.hexdigest(), count


def algebra_digest() -> tuple:
    """:func:`catalog_digest` of :func:`algebra_outputs` on the catalog
    states with three or more subsystems and two or more branches."""
    def outputs(state):
        if state.n_subsystems < 3:
            return None
        full = maximal_decomposition(state).decomposition
        return algebra_outputs(state, full) if full.n_branches >= 2 else None

    return catalog_digest("algebra", outputs)


def oracle_digest() -> tuple:
    """:func:`catalog_digest` of :func:`oracle_outputs` on the catalog states
    the oracle takes."""
    return catalog_digest(
        "oracle", lambda state: oracle_outputs(state) if state.total_dim <= ORACLE_MAX_DIM else None
    )


def _value_bytes(value) -> bytes:
    """An array as its dtype, shape and bytes; any other value as its repr."""
    if isinstance(value, np.ndarray):
        value = np.ascontiguousarray(value)
        return f"{value.dtype} {value.shape}\n".encode() + value.tobytes()
    return f"{value!r}\n".encode()


def layer_digest(workload_seeds) -> tuple:
    """(sha256 hex digest, number of outputs) of :func:`layer_outputs` on
    each input state with three or more subsystems, one output per state."""
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in write_inputs(Path(tmp), workload_seeds):
            state = StateFile.read(path).to_state()
            if state.n_subsystems < 3:
                continue
            try:
                outputs = layer_outputs(state)
            except ERRORS as exc:
                outputs = [f"raised {type(exc).__name__}: {exc}"]
            text = b"".join(map(_value_bytes, outputs))
            digest.update(f"{name} layers bytes={len(text)}\n".encode())
            digest.update(text)
            count += 1
    return digest.hexdigest(), count


def state_digest(workload_seeds) -> tuple:
    """(sha256 hex digest, number of outputs) of ``StateFile.to_json`` on each
    input state, as read back by ``StateFile.from_json``."""
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in write_inputs(Path(tmp), workload_seeds):
            text = StateFile.from_json(path.read_text()).to_json().encode()
            digest.update(f"{name} state bytes={len(text)}\n".encode())
            digest.update(text)
            count += 1
    return digest.hexdigest(), count


READER_STATE = "ghz-3x4-dressed-0"
BAD_PAIRS = {  # name: the value that replaces one good [re, im] pair
    "true": [True, 0.0], '"1"': ["1", 0.0], "null": [None, 0.0], "NaN": [math.nan, 0.0],
    "Infinity": [math.inf, 0.0], "10**400": [10**400, 0.0],
    "[1.0]": [1.0], "[1.0, 0.0, 0.0]": [1.0, 0.0, 0.0], "5": 5, "{}": {},
}


def reader_corpus(state: dict, report: dict) -> list:
    """(name, which file, document) of each malformed copy of a state file's
    and its report's documents: every bad pair at the first and the last
    amplitude, and at the first and the last entry of branch 0's first
    support column, then a NaN pair before a ``true`` one in each."""
    corpus = []
    places = (("state", state, lambda doc: doc["amps"]),
              ("report", report, lambda doc: doc["branches"][0]["supports"][0][0]))
    for which, document, pairs in places:
        edits = [(f"{bad} at {k}", {k: pair}) for bad, pair in BAD_PAIRS.items() for k in (0, -1)]
        edits.append(("NaN then true", {0: [math.nan, 0.0], 1: [True, 0.0]}))
        for name, edit in edits:
            edited = copy.deepcopy(document)
            for k, pair in edit.items():
                pairs(edited)[k] = pair
            corpus.append((f"{which} {name}", which, edited))
    return corpus


def reader_outputs() -> list:
    """(name, exit code, standard output and error) of ``verify`` on each
    :func:`reader_corpus` copy, beside the other file's genuine copy."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        state, bad_state = work / "state.json", work / "bad-state.json"
        StateFile.from_state(catalog_states()[READER_STATE], name=READER_STATE).write(state)
        code, report = decompose(state, "json", work / "out")
        outputs = []
        for name, which, document in reader_corpus(json.loads(state.read_text()),
                                                   json.loads(report)):
            text = json.dumps(document)
            if which == "state":
                bad_state.write_text(text)
                outputs.append((name, *run_verify(bad_state, report, work)))
            else:
                outputs.append((name, *run_verify(state, text.encode(), work)))
    return outputs


def reader_digest() -> tuple:
    """(sha256 hex digest, number of outputs) of :func:`reader_outputs`."""
    digest = hashlib.sha256()
    outputs = reader_outputs()
    for name, code, text in outputs:
        digest.update(f"{name} reader exit={code} bytes={len(text)}\n".encode())
        digest.update(text)
    return digest.hexdigest(), len(outputs)


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = _root_option(argparse.ArgumentParser(description=__doc__.splitlines()[0]))
    parser.add_argument("--workload-seeds", type=_int_list, default=[0, 1, 2, 3, 4],
                        help="comma-separated seeds of the benchmark workloads' states")
    args = parser.parse_args(argv)
    if args.root.resolve() != ROOT:
        parser.error(f"--root takes effect only when the tool runs as a script; digesting {ROOT}")
    labels = digests(args.workload_seeds)
    labels["layers"] = layer_digest(args.workload_seeds)
    labels["algebra"] = algebra_digest()
    labels["oracle"] = oracle_digest()
    labels["states"] = state_digest(args.workload_seeds)
    labels["reader"] = reader_digest()
    for label, (digest, count) in labels.items():
        print(f"{label:<18} {digest}  {count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

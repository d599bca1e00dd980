"""Benchmark of the decompose -> verify round trip of the lodecomp CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's states from the seed (see states.py), writes them as
state files, and takes each through

    lodecomp decompose STATE --format json -o REPORT
    lodecomp verify STATE REPORT

both called in-process through ``lodecomp.cli.main``, in a closed loop of
whole rounds over the states (one process, one client) until S seconds
have passed.  Every report is checked against the answer known by
construction, and after the loop ``verify`` must reject a tampered copy
of each report.

--trace 0 reports the end-to-end metrics; set-up is timed in separate
probe processes.  --trace 1 reports the per-layer metrics: each state
goes through the round trip once untraced and once with spans around the
package's public functions (tracer.py), then through direct timed calls
of ``sbd_refine`` and ``assemble_branches``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread, in this process and in the probes, which inherit the
# environment.  It has to be set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
TAMPER_ANGLE = 1e-3

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import states  # noqa: E402
from tracer import Tracer, total  # noqa: E402

clock = time.perf_counter


@dataclass
class Item:
    case: states.Case
    state: str
    report: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    paths: Counter = field(default_factory=Counter)  # (state index, path) -> round trips


def round_trip(cli_main, item: Item, tracer: Tracer = None):
    """Decompose then verify one state file.

    Returns (decompose seconds, verify seconds, exit codes, verify output,
    spans of each step taken from ``tracer``); verify is skipped, with
    seconds None, when decompose fails.
    """
    spans = []
    start = clock()
    code = cli_main(["decompose", item.state, "--format", "json", "-o", item.report])
    decompose_s = clock() - start
    if tracer is not None:
        spans.append(tracer.take())
    if code != 0:
        return decompose_s, None, (code, None), "", spans
    out = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out):
        verify_code = cli_main(["verify", item.state, item.report])
    verify_s = clock() - start
    if tracer is not None:
        spans.append(tracer.take())
    return decompose_s, verify_s, (code, verify_code), out.getvalue(), spans


def judge(item: Item, codes, verify_text: str, tally: Tally):
    """Check one finished round trip's report.  Returns it, or None when a step failed."""
    if codes != (0, 0):
        return None
    if verify_text.rstrip().splitlines()[-1:] != ["PASS"]:
        tally.problems.append(f"verify did not end in PASS: {verify_text!r}")
    with open(item.report, encoding="utf-8") as handle:
        document = json.load(handle)
    tally.problems.extend(check.check_report(document, item.case))
    return document


def check_tampered(cli_main, items, reports, work: Path, tally: Tally) -> None:
    """``verify`` must exit 1 on each report with one support turned slightly."""
    for k, (item, document) in enumerate(zip(items, reports)):
        if document is None:
            continue
        path = work / f"tampered-{k}.json"
        path.write_text(json.dumps(check.rotate_support(document, angle=TAMPER_ANGLE)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["verify", item.state, str(path)])
        if code != 1:
            tally.problems.append(f"verify exited {code}, not 1, on a tampered report")


def warm_up(cli_main, item: Item) -> None:
    """One round trip that is not counted, so lazy imports and caches are done."""
    _, _, codes, _, _ = round_trip(cli_main, item)
    if codes != (0, 0):
        raise RuntimeError(f"warm-up round trip failed with exit codes {codes}")


def probe_setup(item: Item, report: Path) -> float:
    """Seconds from starting a fresh interpreter to its first finished round trip."""
    command = [sys.executable, str(HERE / "probe.py"), str(SRC), item.state, str(report)]
    start = clock()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = clock() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {line.strip()!r}")
    return seconds


def run_plain(items, seconds: float, work: Path, tally: Tally):
    setup = [probe_setup(items[0], work / f"probe-{k}.json") for k in range(SETUP_PROBES)]

    from lodecomp.cli import main as cli_main

    warm_up(cli_main, items[0])

    decompose, verify = [], []
    reports = [None] * len(items)
    deadline = clock() + seconds
    while True:
        for k, item in enumerate(items):
            tally.attempted += 1
            d, v, codes, text, _ = round_trip(cli_main, item)
            reports[k] = judge(item, codes, text, tally)
            if reports[k] is None:
                tally.failed += 1
                continue
            tally.paths[k, reports[k]["diagnostics"]["path"]] += 1
            decompose.append(d)
            verify.append(v)
        if clock() >= deadline:
            break
    check_tampered(cli_main, items, reports, work, tally)
    if not decompose:
        raise RuntimeError("no round trip succeeded")

    return {
        "states_per_s": (len(decompose) / (sum(decompose) + sum(verify)), "1/s"),
        "decompose_ms_p50": (1e3 * statistics.median(decompose), "ms"),
        "verify_ms_p50": (1e3 * statistics.median(verify), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "decompose_ms_p50": len(decompose),
        "verify_ms_p50": len(verify),
        "setup_s": len(setup),
    }


def layer_calls(item: Item, path: str, tracer: Tracer):
    """Direct timed calls of the SBD and assembly layers on one state.

    ``sbd_refine`` runs over all subsystems on every state, although the
    pipeline itself runs it only on the block-sbd path.  Assembly starts
    from the partitions the pipeline would use.  Returns (SBD seconds, SBD
    block count, assembly seconds minus its graph time, branch count).
    """
    from lodecomp import StateFile, assemble_branches, local_spectrum, sbd_refine

    state = StateFile.read(item.state).to_state()
    n_sub = state.n_subsystems
    start = clock()
    parts = [sbd_refine(state, n) for n in range(n_sub)]
    sbd_s = clock() - start
    blocks = sum(len(p) for p in parts)
    if path != "block-sbd":
        spectra = [local_spectrum(state, n) for n in range(n_sub)]
        parts = [[s.eigenvectors[:, [k]] for k in range(s.support_rank)] for s in spectra]
    tracer.install(targets=[("lodecomp.decomposition", "build_correlation_graph")])
    try:
        start = clock()
        decomposition = assemble_branches(state, parts)
        assemble_s = clock() - start
    finally:
        tracer.uninstall()
    graph_s = total(tracer.take(), "build_correlation_graph")
    return sbd_s, blocks, assemble_s - graph_s, decomposition.n_branches


def run_traced(items, seconds: float, work: Path, tally: Tally):
    from lodecomp.cli import main as cli_main

    tracer = Tracer()
    warm_up(cli_main, items[0])

    per_state = {}
    kernel_calls = []
    untraced, traced = [], []
    reports = [None] * len(items)

    def add(name, value):
        per_state.setdefault(name, []).append(value)

    deadline = clock() + seconds
    while True:
        for k, item in enumerate(items):
            tally.attempted += 1
            d0, _, codes, text, _ = round_trip(cli_main, item)
            if judge(item, codes, text, tally) is None:
                tally.failed += 1
                continue
            tracer.install()
            try:
                d1, _, codes, text, spans = round_trip(cli_main, item, tracer)
            finally:
                tracer.uninstall()
            document = reports[k] = judge(item, codes, text, tally)
            if document is None:
                tally.failed += 1
                continue
            path = document["diagnostics"]["path"]
            tally.paths[k, path] += 1
            sbd_s, blocks, assemble_self_s, n_branches = layer_calls(item, path, tracer)
            if n_branches != len(item.case.weights):
                tally.problems.append(f"assemble_branches gave {n_branches} branches")
            untraced.append(d0)
            traced.append(d1)

            dspans, vspans = spans
            read_s = total(dspans, "StateFile.read")
            maximal_s = total(dspans, "maximal_decomposition")
            write_s = total(dspans, "report_document", "report_to_json")
            kernels = [s for s in dspans + vspans if s[0] == "apply_matrix_at"]
            kernel_calls.extend(dt for _, dt, _ in kernels)
            graphs = [result for name, _, result in dspans if name == "build_correlation_graph"]
            add("tensor.apply_matrix_at_calls", len(kernels))
            add("spectral.local_spectra_ms", 1e3 * total(dspans, "local_spectrum"))
            add("spectral.local_spectrum_calls", sum(s[0] == "local_spectrum" for s in dspans))
            add("decomposition.sbd_ms", 1e3 * sbd_s)
            add("decomposition.graph_ms", 1e3 * total(dspans, "build_correlation_graph"))
            add("decomposition.assemble_self_ms", 1e3 * assemble_self_s)
            add("decomposition.verify_ms", 1e3 * total(dspans, "verify_lo"))
            add("decomposition.maximal_ms", 1e3 * maximal_s)
            add("fileio.state_read_ms", 1e3 * read_s)
            add("fileio.report_write_ms", 1e3 * write_s)
            add("fileio.report_read_ms", 1e3 * total(vspans, "parse_report", "branches_from_report"))
            add("cli.unaccounted_ms", 1e3 * (d1 - read_s - maximal_s - write_s))
            add("decomposition.graph_nodes", len(graphs[0].nodes) if graphs else 0)
            add("decomposition.graph_edges", len(graphs[0].edges) if graphs else 0)
            add("decomposition.sbd_blocks", blocks)
            add("decomposition.branches", document["branch_count"])
        if clock() >= deadline:
            break
    check_tampered(cli_main, items, reports, work, tally)
    if not traced:
        raise RuntimeError("no round trip succeeded")

    kernel_us = 1e6 * statistics.median(kernel_calls) if kernel_calls else 0.0
    metrics = {"tensor.apply_matrix_at_us": (kernel_us, "us")}
    for name, values in per_state.items():
        unit = "ms" if name.endswith("_ms") else "count"
        metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    counts = {name: len(traced) for name in metrics}
    counts["tensor.apply_matrix_at_us"] = len(kernel_calls)
    print(
        f"decompose_ms_p50 untraced {1e3 * statistics.median(untraced):.3f} ms, "
        f"traced {1e3 * statistics.median(traced):.3f} ms (n={len(traced)})"
    )
    return metrics, counts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(states.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lodecomp" / "cli.py").is_file():
        print(f"error: the package source {SRC / 'lodecomp'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        items = []
        for k, case in enumerate(states.make_cases(args.workload, args.seed)):
            state = work / f"state-{k}.json"
            state.write_text(states.state_json(case))
            items.append(Item(case, str(state), str(work / f"report-{k}.json")))
        runner = run_traced if args.trace else run_plain
        try:
            metrics, counts = runner(items, args.seconds, work, tally)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    dims = "x".join(str(d) for d in items[0].case.dims)
    print(f"workload {args.workload}: seed {args.seed}, {len(items)} states of dims {dims}, "
          f"trace {args.trace}")
    for (k, path), n in sorted(tally.paths.items()):
        print(f"state {k}: path {path} ({n} round trips)")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    for name, (value, unit) in metrics.items():
        sample = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:34s} {value:14.6f} {unit}{sample}")
    for problem in tally.problems[:20]:
        print(f"WRONG: {problem}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

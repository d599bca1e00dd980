"""Command-line interface: decompose, entropy, generate, verify, compare.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 invalid input, 3 internal consistency error.  All error messages go to
stderr; reports go to stdout or the -o file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .catalog import KINDS, StateSpec, generate
from .decomposition import maximal_decomposition, verify_lo
from .entanglement import e_lo, entropy_report
from .errors import InternalConsistencyError, UnsupportedOperationError
from .fileio import (
    StateFile,
    branches_from_report,
    read_report,
    report_document,
    report_to_json,
)
from .oracle import oracle_verify_maximality_small
from .tolerances import DEFAULT_TOLERANCES


def _add_tolerance_flags(parser):
    parser.add_argument(
        "--tol-deg", type=float, default=DEFAULT_TOLERANCES.t_deg,
        help="eigenvalue gap below which a spectrum counts as degenerate",
    )
    parser.add_argument(
        "--tol-supp", type=float, default=DEFAULT_TOLERANCES.t_supp,
        help="eigenvalue floor below which a direction is outside the support",
    )
    parser.add_argument(
        "--tol-edge", type=float, default=DEFAULT_TOLERANCES.t_edge,
        help="squared joint-projection norm above which blocks are linked",
    )


def _tolerances(args):
    return dataclasses.replace(
        DEFAULT_TOLERANCES,
        t_deg=args.tol_deg,
        t_supp=args.tol_supp,
        t_edge=args.tol_edge,
    )


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _format_table(document: dict) -> str:
    lines = []
    name = document.get("name")
    if name:
        lines.append(f"name: {name}")
    lines.append("dims: " + " x ".join(str(d) for d in document["dims"]))
    diag = document["diagnostics"]
    seed = diag["seed"]
    lines.append(f"path: {diag['path']}" + (f" (seed {seed})" if seed is not None else ""))
    lines.append(f"branches: {document['branch_count']}")
    lines.append(f"E_LO = {document['entropy_bits']:.6f} bits")
    lines.append("")
    lines.append(f"{'branch':>6}  {'weight':<22}  support ranks")
    for j, entry in enumerate(document["branches"]):
        ranks = ",".join(str(len(sub)) for sub in entry["supports"])
        lines.append(f"{j:>6}  {entry['weight']!r:<22}  {ranks}")
    flags = document["flags"]
    lines.append("")
    lines.append(
        "flags: degenerate_spectrum="
        + ("yes" if flags["degenerate_spectrum"] else "no")
        + " non_unique="
        + ("yes" if flags["non_unique"] else "no")
    )
    return "\n".join(lines) + "\n"


def _format_csv(document: dict) -> str:
    lines = ["branch,weight"]
    for j, weight in enumerate(document["weights"]):
        lines.append(f"{j},{weight!r}")
    return "\n".join(lines) + "\n"


def cmd_decompose(args) -> int:
    state_file = StateFile.read(args.input)
    state = state_file.to_state()
    result = maximal_decomposition(state, _tolerances(args), args.seed)
    document = report_document(result, entropy_report(result), state_file.name)
    if args.format == "json":
        text = report_to_json(document)
    elif args.format == "csv":
        text = _format_csv(document)
    else:
        text = _format_table(document)
    _emit(text, args.output)
    return 0


def cmd_entropy(args) -> int:
    state_file = StateFile.read(args.input)
    report = e_lo(state_file.to_state(), _tolerances(args), args.seed)
    if args.nats:
        line = f"E_LO = {report.entropy_nats:.6f} nats"
    else:
        line = f"E_LO = {report.entropy_bits:.6f} bits"
    _emit(line + "\n", args.output)
    return 0


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated integer list") from exc


def _parse_float_list(text: str, what: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated number list") from exc


def _spec_from_args(args, kind: str, seed) -> StateSpec:
    dims = _parse_int_list(args.dims, "--dims") if args.dims else None
    weights = _parse_float_list(args.weights, "--weights") if args.weights else None
    if kind == "ghz":
        if args.d is not None:
            dims = (args.d,) * (args.n or (len(dims) if dims else 3))
        return StateSpec("ghz", n_subsystems=args.n, dims=dims)
    if kind == "w":
        return StateSpec("w", n_subsystems=args.n, dims=dims)
    if kind == "z":
        return StateSpec("z", n_subsystems=args.n, dims=dims, weights=weights)
    if kind in ("u", "v", "x"):
        return StateSpec(kind)
    if kind == "product":
        return StateSpec("product", dims=dims, split=args.split, seed=seed)
    if kind == "random":
        return StateSpec("random", dims=dims, seed=seed)
    if kind == "random_local_dressing":
        if not args.base:
            raise ValueError("random_local_dressing requires --base")
        base = _spec_from_args(args, args.base, args.base_seed)
        return StateSpec("random_local_dressing", base=base, seed=seed)
    raise ValueError(f"unknown kind {kind!r}")


def cmd_generate(args) -> int:
    spec = _spec_from_args(args, args.kind, args.seed)
    state = generate(spec)
    state_file = StateFile.from_state(state, name=args.name or args.kind)
    _emit(state_file.to_json(), args.output)
    return 0


def cmd_verify(args) -> int:
    state_file = StateFile.read(args.input)
    state = state_file.to_state()
    document = read_report(args.report)
    if list(state.dims) != document["dims"]:
        raise ValueError(
            f"report dims {document['dims']} do not match state dims {list(state.dims)}"
        )
    decomposition, problems = branches_from_report(document, state)
    ok = not problems
    lines = list(problems)
    if decomposition is None:
        lines.append("no branch could be rebuilt from the report")
        ok = False
    else:
        verification = verify_lo(decomposition, _tolerances(args))
        lines.append(verification.summary())
        ok = ok and verification.passed
        if args.oracle:
            verdict = oracle_verify_maximality_small(decomposition, _tolerances(args))
            lines.append(f"maximality: {verdict.verdict} ({verdict.detail})")
            if verdict.failed:
                ok = False
    lines.append("PASS" if ok else "FAIL")
    _emit("\n".join(lines) + "\n", None)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    rows = []
    for path in (args.a, args.b):
        state_file = StateFile.read(path)
        state = state_file.to_state()
        result = maximal_decomposition(state, _tolerances(args), args.seed)
        entropy = entropy_report(result)
        rows.append(
            {
                "label": state_file.name or path,
                "dims": "x".join(str(d) for d in state.dims),
                "branches": entropy.branch_count,
                "weights": ", ".join(f"{w:.12g}" for w in entropy.weights),
                "entropy": f"{entropy.entropy_bits:.6f} bits",
            }
        )
    a, b = rows
    lines = []
    width = max(len(str(a[key])) for key in a) + 2
    for key in ("label", "dims", "branches", "weights", "entropy"):
        lines.append(f"{key:>9}  {str(a[key]):<{width}}  {b[key]}")
    wa = sorted(float(w) for w in a["weights"].split(", ") if w)
    wb = sorted(float(w) for w in b["weights"].split(", ") if w)
    same = len(wa) == len(wb) and all(abs(x - y) <= 1e-9 for x, y in zip(wa, wb))
    lines.append(f"identical weight multisets: {'yes' if same else 'no'}")
    _emit("\n".join(lines) + "\n", None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lodecomp",
        description="Locally orthogonal branch decompositions of multipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compute and report the maximal decomposition")
    p.add_argument("input", help="state file (JSON)")
    _add_tolerance_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized path")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("entropy", help="print the branch-weight entropy")
    p.add_argument("input", help="state file (JSON)")
    _add_tolerance_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nats", action="store_true", help="report in nats instead of bits")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("generate", help="write a catalog state to a state file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, default=None, help="number of subsystems")
    p.add_argument("--d", type=int, default=None, help="local dimension (ghz)")
    p.add_argument("--dims", default=None, help="comma-separated dimensions")
    p.add_argument("--weights", default=None, help="comma-separated weights (z)")
    p.add_argument("--split", type=int, default=None, help="tensor split position (product)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--base", default=None, choices=KINDS[:-1], help="base kind for dressing")
    p.add_argument("--base-seed", type=int, default=None, help="seed for the base state")
    p.add_argument("--name", default=None, help="name stored in the file (default: kind)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a report against a state file")
    p.add_argument("input", help="state file (JSON)")
    p.add_argument("report", help="report file (JSON) from decompose --format json")
    _add_tolerance_flags(p)
    p.add_argument("--oracle", action="store_true", help="also search for missed splits")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="side-by-side decomposition of two states")
    p.add_argument("a", help="first state file")
    p.add_argument("b", help="second state file")
    _add_tolerance_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, UnsupportedOperationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - contract maps unexpected failures to 3
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

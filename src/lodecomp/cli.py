"""Command-line interface: decompose, entropy, generate, verify, compare.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 invalid input, 3 internal consistency error.  All error messages go to
stderr; reports go to stdout or the -o file.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .catalog import KINDS, StateSpec, generate
from .decomposition import VERIFY_ATOL, maximal_decomposition, verify_lo
from .entanglement import e_lo, weight_entropy
from .errors import InternalConsistencyError, UnsupportedOperationError
from .fileio import (
    StateFile,
    branches_from_report,
    parse_report,
    report_document,
    report_to_json,
)
from .oracle import oracle_verify_maximality_small
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_TOLERANCE_HELP = {
    "t_deg": "eigenvalue gap below which a spectrum counts as degenerate",
    "t_supp": "eigenvalue floor below which a direction is outside the support",
    "t_edge": "squared joint-projection norm above which blocks are linked",
}


def _add_tolerance_flags(parser):
    """One ``--tol-*`` flag per :class:`Tolerances` field."""
    for name, text in _TOLERANCE_HELP.items():
        parser.add_argument(
            "--tol-" + name[2:], type=float, default=getattr(DEFAULT_TOLERANCES, name), help=text
        )


def _tolerances(args):
    return Tolerances(t_deg=args.tol_deg, t_supp=args.tol_supp, t_edge=args.tol_edge)


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
    result = maximal_decomposition(state, _tolerances(args))
    document = report_document(result, state_file.name)
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
    bits = e_lo(state_file.to_state(), _tolerances(args))
    if args.nats:
        line = f"E_LO = {bits * math.log(2.0):.6f} nats"
    else:
        line = f"E_LO = {bits:.6f} bits"
    _emit(line + "\n", args.output)
    return 0


def _parse_list(text: str, what: str, convert) -> tuple:
    try:
        return tuple(convert(part) for part in text.split(","))
    except ValueError as exc:
        noun = "integer" if convert is int else "number"
        raise ValueError(f"{what} must be a comma-separated {noun} list") from exc


def _spec_from_args(args, kind: str, seed) -> StateSpec:
    if kind == "random_local_dressing":
        if not args.base:
            raise ValueError("random_local_dressing requires --base")
        return StateSpec(kind, seed=seed, base=_spec_from_args(args, args.base, args.base_seed))
    dims = _parse_list(args.dims, "--dims", int) if args.dims else None
    weights = _parse_list(args.weights, "--weights", float) if args.weights else None
    if args.d is not None:
        if kind != "ghz":
            raise ValueError(f"kind {kind!r} does not accept parameters ['d']")
        if dims and set(dims) != {args.d}:
            raise ValueError(f"--dims {args.dims} disagrees with --d {args.d}")
        dims = dims or (args.d,) * (args.n or 3)
    return StateSpec(kind, args.n, dims, weights, seed, args.split)


def cmd_generate(args) -> int:
    # --base and --base-seed describe the state random_local_dressing dresses
    extra = [name for name in ("base", "base_seed") if getattr(args, name) is not None]
    if extra and args.kind != "random_local_dressing":
        raise ValueError(f"kind {args.kind!r} does not accept parameters {extra}")
    spec = _spec_from_args(args, args.kind, args.seed)
    state = generate(spec)
    state_file = StateFile.from_state(state, name=args.name or args.kind)
    _emit(state_file.to_json(), args.output)
    return 0


def cmd_verify(args) -> int:
    state = StateFile.read(args.input).to_state()
    with open(args.report, "r", encoding="utf-8") as handle:
        document = parse_report(handle.read())
    decomposition, lines = branches_from_report(document, state)
    ok = not lines
    if decomposition is None:
        lines.append("no branch could be rebuilt from the report")
        ok = False
    else:
        verification = verify_lo(decomposition)
        lines.append(verification.summary())
        ok = ok and verification.passed
        if args.oracle:
            verdict = oracle_verify_maximality_small(decomposition)
            lines.append(f"maximality: {verdict.verdict} ({verdict.detail})")
            if verdict.failed:
                ok = False
    lines.append("PASS" if ok else "FAIL")
    _emit("\n".join(lines) + "\n", None)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    rows, weights = [], []
    for path in (args.a, args.b):
        state_file = StateFile.read(path)
        state = state_file.to_state()
        found = maximal_decomposition(state, _tolerances(args)).decomposition.weights
        weights.append(sorted(found))
        rows.append(
            {
                "label": state_file.name or path,
                "dims": "x".join(str(d) for d in state.dims),
                "branches": len(found),
                "weights": ", ".join(f"{w:.12g}" for w in found),
                "entropy": f"{weight_entropy(found):.6f} bits",
            }
        )
    a, b = rows
    lines = []
    width = max(len(str(a[key])) for key in a) + 2
    for key in ("label", "dims", "branches", "weights", "entropy"):
        lines.append(f"{key:>9}  {str(a[key]):<{width}}  {b[key]}")
    wa, wb = weights
    same = len(wa) == len(wb) and all(abs(x - y) <= VERIFY_ATOL for x, y in zip(wa, wb))
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
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("entropy", help="print the branch-weight entropy")
    p.add_argument("input", help="state file (JSON)")
    _add_tolerance_flags(p)
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
    p.add_argument("--oracle", action="store_true",
                   help="also search for missed splits, at the default tolerances")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="side-by-side decomposition of two states")
    p.add_argument("a", help="first state file")
    p.add_argument("b", help="second state file")
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs more than a small
    decomposition, and parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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

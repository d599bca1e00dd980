"""Serialization of states and decomposition reports.

Two JSON document kinds, both carrying a schema_version field:

* state file: dims plus amplitudes as [re, im] pairs in the flat
  row-major layout (subsystem 0 slowest), with optional name/metadata;
* report document: branch weights, entropy, per-branch per-subsystem
  support basis vectors, diagnostics, and flags.

Floats are written with Python's shortest round-trip representation, so
writing and re-reading a document is bit-exact, and fixed inputs plus a
fixed seed yield byte-identical report text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import Branch, BranchDecomposition, DecompositionResult
from .entanglement import EntropyReport
from .tensor import StateTensor, apply_matrix_at

SCHEMA_VERSION = 1


def _complex_pairs(vec: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in vec]


def _pairs_to_complex(pairs, what: str) -> np.ndarray:
    out = np.empty(len(pairs), dtype=np.complex128)
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"{what}[{k}] must be a [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise ValueError(f"{what}[{k}] must contain two numbers")
        out[k] = complex(re, im)
    nonfinite = np.flatnonzero(~np.isfinite(out))
    if nonfinite.size:
        raise ValueError(f"{what}[{nonfinite[0]}] must contain two finite numbers")
    return out


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True, eq=False)
class StateFile:
    """On-disk form of a state: raw amplitudes plus layout and labels.

    The amplitudes are stored exactly as given; ``to_state`` normalizes.
    """

    dims: tuple
    amps: np.ndarray = field(repr=False)
    name: str | None = None
    metadata: dict | None = None

    @classmethod
    def from_state(cls, state: StateTensor, name=None, metadata=None) -> "StateFile":
        return cls(state.dims, state.amps.copy(), name, metadata)

    def to_state(self) -> StateTensor:
        return StateTensor(self.dims, self.amps)

    def to_json(self) -> str:
        document = {
            "schema_version": SCHEMA_VERSION,
            "dims": [int(d) for d in self.dims],
            "amps": _complex_pairs(self.amps),
        }
        if self.name is not None:
            document["name"] = self.name
        if self.metadata is not None:
            document["metadata"] = self.metadata
        return _dump(document)

    @classmethod
    def from_json(cls, text: str) -> "StateFile":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ValueError("state file must be a JSON object")
        version = document.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        dims = document.get("dims")
        if not isinstance(dims, list) or not dims or not all(
            isinstance(d, int) and d >= 1 for d in dims
        ):
            raise ValueError("dims must be a list of positive integers")
        amps = document.get("amps")
        if not isinstance(amps, list):
            raise ValueError("amps must be a list of [re, im] pairs")
        if len(amps) != math.prod(dims):
            raise ValueError(
                f"amps has length {len(amps)}, expected prod(dims) = {math.prod(dims)}"
            )
        vec = _pairs_to_complex(amps, "amps")
        name = document.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError("name must be a string")
        metadata = document.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise ValueError("metadata must be an object")
        return cls(tuple(dims), vec, name, metadata)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def read(cls, path) -> "StateFile":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def report_document(
    result: DecompositionResult,
    entropy: EntropyReport,
    name: str | None = None,
) -> dict:
    """Assemble the machine-readable decomposition report."""
    decomposition = result.decomposition
    diagnostics = result.diagnostics
    branches = []
    for branch in decomposition.branches:
        branches.append(
            {
                "weight": branch.weight,
                "supports": [
                    [_complex_pairs(basis[:, k]) for k in range(basis.shape[1])]
                    for basis in branch.supports
                ],
            }
        )
    tolerances = diagnostics.tolerances
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "dims": [int(d) for d in decomposition.state.dims],
        "branch_count": decomposition.n_branches,
        "weights": [branch.weight for branch in decomposition.branches],
        "entropy_bits": entropy.entropy_bits,
        "branches": branches,
        "diagnostics": {
            "path": diagnostics.path,
            "seed": diagnostics.seed,
            "tolerances": {
                "t_deg": tolerances.t_deg,
                "t_supp": tolerances.t_supp,
                "t_edge": tolerances.t_edge,
                "w_min": tolerances.w_min,
                "t_nindep": tolerances.t_nindep,
                "sbd_stable_rounds": tolerances.sbd_stable_rounds,
            },
            "n_independence_residual": diagnostics.n_independence_residual,
            "min_accepted_edge": diagnostics.min_accepted_edge,
            "max_rejected_edge": diagnostics.max_rejected_edge,
            "degenerate_subsystems": list(diagnostics.degenerate_subsystems),
        },
        "flags": {
            "degenerate_spectrum": bool(diagnostics.degenerate_subsystems),
            "non_unique": diagnostics.non_unique,
        },
    }


def report_to_json(document: dict) -> str:
    return _dump(document)


def parse_report(text: str) -> dict:
    """Parse and structurally validate a report document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValueError("report must be a JSON object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {document.get('schema_version')!r}")
    for key in ("dims", "branch_count", "weights", "branches"):
        if key not in document:
            raise ValueError(f"report is missing the {key!r} field")
    if not isinstance(document["branches"], list) or not document["branches"]:
        raise ValueError("report must contain at least one branch")
    if len(document["branches"]) != document["branch_count"]:
        raise ValueError("branch_count does not match the branch list")
    return document


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_report(handle.read())


def branches_from_report(document: dict, state: StateTensor, atol: float = 1e-9):
    """Rebuild a decomposition from a report's supports against a state.

    Branch vectors are recovered by projecting the state onto each
    reported subsystem-0 support.  Structural defects in the document
    raise ValueError; semantic mismatches against the state (weights that
    disagree, supports carrying no weight) are verification findings and
    are returned as problem strings instead.

    Returns
    -------
    (BranchDecomposition or None, list of str)
        The rebuilt decomposition (None if no branch could be rebuilt)
        and the list of mismatch descriptions, empty when clean.
    """
    dims = state.dims
    branches = []
    problems = []
    for j, entry in enumerate(document["branches"]):
        if not isinstance(entry, dict):
            raise ValueError(f"branch {j} must be an object")
        reported = entry.get("weight")
        if (
            isinstance(reported, bool)
            or not isinstance(reported, (int, float))
            or not math.isfinite(reported)
        ):
            raise ValueError(f"branch {j} weight must be a finite number")
        supports = []
        raw = entry.get("supports")
        if not isinstance(raw, list) or len(raw) != len(dims):
            raise ValueError(f"branch {j} must list one support per subsystem")
        for n, columns in enumerate(raw):
            if not isinstance(columns, list) or not columns:
                raise ValueError(f"branch {j} subsystem {n} support is empty")
            if not all(isinstance(col, list) for col in columns):
                raise ValueError(f"branch {j} support {n} columns must be lists of [re, im] pairs")
            basis = np.stack(
                [_pairs_to_complex(col, f"branch {j} support {n}") for col in columns],
                axis=1,
            )
            if basis.shape[0] != dims[n]:
                raise ValueError(
                    f"branch {j} support {n} has dimension {basis.shape[0]}, "
                    f"expected {dims[n]}"
                )
            supports.append(basis)
        projector = supports[0] @ supports[0].conj().T
        vec = apply_matrix_at(state.amps, dims, 0, projector)
        weight = float(np.vdot(vec, vec).real)
        if weight <= 1e-12:
            problems.append(f"branch {j}: reported supports carry no weight in the state")
            continue
        if abs(weight - reported) > atol:
            problems.append(
                f"branch {j}: reported weight {reported!r} does not match the state "
                f"(recomputed {weight!r})"
            )
        branches.append(Branch(weight, vec / math.sqrt(weight), tuple(supports)))
    if not branches:
        return None, problems
    return BranchDecomposition(state, branches), problems

"""Serialization of states and decomposition reports.

Two JSON document kinds, both carrying a schema_version field:

* state file: dims plus amplitudes as [re, im] pairs in the flat
  row-major layout (subsystem 0 slowest), with optional name/metadata;
* report document: branch weights, entropy, per-branch per-subsystem
  support basis vectors, diagnostics, and flags.

Both kinds are written as ``json.dumps(document, sort_keys=True)``: one
line, keys sorted, then a newline (``python3 -m json.tool FILE``
pretty-prints one).  Floats are written with Python's shortest
round-trip representation, so writing and re-reading a document is
bit-exact, and fixed inputs and tolerances yield byte-identical report
text.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .decomposition import (SBD_STABLE_ROUNDS, T_NINDEP, VERIFY_ATOL, W_MIN,
                            BranchDecomposition, DecompositionResult, branches_from_supports)
from .entanglement import weight_entropy
from .tensor import StateTensor

SCHEMA_VERSION = 1
ENTROPY_ATOL = 1e-12  # decompose writes entropy_bits bit-exact


def _complex_pairs(values: np.ndarray) -> list:
    """[re, im] pairs of Python floats, nested as ``values`` is: a vector gives
    a list of pairs, a matrix a list of rows of pairs."""
    pairs = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    return pairs.reshape(*np.shape(values), 2).tolist()


def _is_int(value) -> bool:
    """A JSON integer; Python's json reads true/false as bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number (not a boolean) within the float range."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _is_dims(dims) -> bool:
    return isinstance(dims, list) and bool(dims) and all(_is_int(d) and d >= 1 for d in dims)


def _pairs_to_complex(pairs: list, name) -> np.ndarray:
    """A list of [re, im] lists of finite JSON numbers as a complex vector.

    Types are checked exactly, because numpy reads [true, 0] as the numbers
    [1, 0], and all pairs are converted in one call into a float64 buffer.
    When any check fails, raise ValueError naming the first bad pair, in
    order, as ``name(k)``: not a two-element list, not two numbers, or a
    number whose float64 is not finite (NaN, infinity, or an integer that
    rounds beyond the float range)."""
    if not (set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}):
        flat = list(itertools.chain.from_iterable(pairs))
        if not set(map(type, flat)) - {float, int}:
            try:  # not contextlib.suppress: entering it costs more than a try, on every call
                out = np.fromiter(flat, dtype=np.float64, count=len(flat)).view(np.complex128)
                if np.isfinite(out).all():
                    return out
            except OverflowError:  # an integer beyond the float range
                pass
    for k, pair in enumerate(pairs):  # the same checks, pair by pair
        if not (type(pair) is list and len(pair) == 2):
            raise ValueError(f"{name(k)} must be a [re, im] pair")
        if set(map(type, pair)) - {float, int}:
            raise ValueError(f"{name(k)} must contain two numbers")
        with contextlib.suppress(OverflowError):  # converted as np.fromiter converts
            if all(map(math.isfinite, pair)):
                continue
        raise ValueError(f"{name(k)} must contain two finite numbers")


def _load(text: str, kind: str) -> dict:
    """The JSON object of a ``kind`` document, of the current schema version."""
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValueError(f"{kind} must be a JSON object")
    if not _is_int(version := document.get("schema_version")) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    return document


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
        return json.dumps(document, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StateFile":
        document = _load(text, "state file")
        dims = document.get("dims")
        if not _is_dims(dims):
            raise ValueError("dims must be a list of positive integers")
        amps = document.get("amps")
        if not isinstance(amps, list):
            raise ValueError("amps must be a list of [re, im] pairs")
        if len(amps) != math.prod(dims):
            raise ValueError(
                f"amps has length {len(amps)}, expected prod(dims) = {math.prod(dims)}"
            )
        vec = _pairs_to_complex(amps, lambda k: f"amps[{k}]")
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


def report_document(result: DecompositionResult, name: str | None = None) -> dict:
    """Assemble the machine-readable decomposition report."""
    decomposition = result.decomposition
    weights = [branch.weight for branch in decomposition.branches]
    diagnostics = {key: list(value) if isinstance(value, tuple) else value
                   for key, value in asdict(result.diagnostics).items()}
    non_unique = diagnostics.pop("non_unique")
    # every threshold the run was judged by, the fixed ones beside the cutoffs
    diagnostics["tolerances"].update(
        w_min=W_MIN, t_nindep=T_NINDEP, sbd_stable_rounds=SBD_STABLE_ROUNDS
    )
    branches = []
    for branch in decomposition.branches:
        branches.append(
            {
                "weight": branch.weight,
                "supports": [_complex_pairs(basis.T) for basis in branch.supports],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "dims": [int(d) for d in decomposition.state.dims],
        "branch_count": decomposition.n_branches,
        "weights": weights,
        "entropy_bits": weight_entropy(weights),
        "branches": branches,
        "diagnostics": diagnostics,
        "flags": {
            "degenerate_spectrum": bool(diagnostics["degenerate_subsystems"]),
            "non_unique": non_unique,
        },
    }


def report_to_json(document: dict) -> str:
    """The report as one line of JSON, keys sorted, ending in a newline."""
    return json.dumps(document, sort_keys=True) + "\n"


def parse_report(text: str) -> dict:
    """Parse and structurally validate a report document."""
    document = _load(text, "report")
    for key in ("dims", "branch_count", "weights", "entropy_bits", "branches"):
        if key not in document:
            raise ValueError(f"report is missing the {key!r} field")
    if not _is_dims(document["dims"]):
        raise ValueError("report dims must be a list of positive integers")
    count = document["branch_count"]
    if not _is_int(count):
        raise ValueError("branch_count must be an integer")
    weights = document["weights"]
    if not (
        isinstance(weights, list) and len(weights) == count and all(map(_is_finite_number, weights))
    ):
        raise ValueError(f"weights must be a list of branch_count = {count} finite numbers")
    if not _is_finite_number(document["entropy_bits"]):
        raise ValueError("entropy_bits must be a finite number")
    if not isinstance(document["branches"], list) or not document["branches"]:
        raise ValueError("report must contain at least one branch")
    if len(document["branches"]) != count:
        raise ValueError("branch_count does not match the branch list")
    return document


def branches_from_report(document: dict, state: StateTensor):
    """Rebuild a decomposition from a :func:`parse_report` document's
    supports against a state, and list every problem of the report.

    The branches are those :func:`decomposition.branches_from_supports`
    builds from the reported supports, as ``decompose`` built them.
    Structural defects in the document, and report dims other than the
    state's, raise ValueError.  Mismatches are verification findings,
    returned as problem strings in this order: a branch whose supports
    carry no weight in the state or whose reported weight is not the
    weight they carry, a ``weights[j]`` that is not branch j's weight, and
    an ``entropy_bits`` that is not the entropy of the branch weights.

    Returns
    -------
    (BranchDecomposition or None, list of str)
        The rebuilt decomposition (None if no branch could be rebuilt)
        and the list of mismatch descriptions, empty when clean.
    """
    dims = state.dims
    if list(dims) != document["dims"]:
        raise ValueError(f"report dims {document['dims']} do not match state dims {list(dims)}")
    reported, supports = [], []  # per branch
    for j, entry in enumerate(document["branches"]):
        if not isinstance(entry, dict):
            raise ValueError(f"branch {j} must be an object")
        reported.append(entry.get("weight"))
        if not _is_finite_number(reported[j]):
            raise ValueError(f"branch {j} weight must be a finite number")
        raw = entry.get("supports")
        if not isinstance(raw, list) or len(raw) != len(dims):
            raise ValueError(f"branch {j} must list one support per subsystem")
        supports.append([])
        for n, (d, columns) in enumerate(zip(dims, raw)):
            if not isinstance(columns, list) or not columns:
                raise ValueError(f"branch {j} subsystem {n} support is empty")
            if not all(isinstance(col, list) for col in columns):
                raise ValueError(f"branch {j} support {n} columns must be lists of [re, im] pairs")
            if any(len(col) != d for col in columns):
                raise ValueError(f"branch {j} support {n} columns must have dimension {d}")
            flat = _pairs_to_complex(list(itertools.chain.from_iterable(columns)),
                                     lambda k: f"branch {j} support {n} column {k // d}[{k % d}]")
            supports[j].append(flat.reshape(len(columns), d).T)

    branches = branches_from_supports(state, supports)
    problems = []
    for j, (weight, branch) in enumerate(zip(reported, branches)):
        if branch is None:
            problems.append(f"branch {j}: reported supports carry no weight in the state")
        elif abs(branch.weight - weight) > VERIFY_ATOL:
            problems.append(
                f"branch {j}: reported weight {weight!r} does not match the state "
                f"(recomputed {branch.weight!r})"
            )
    problems += [
        f"weights[{j}] {listed!r} is not branch {j}'s weight {reported[j]!r}"
        for j, listed in enumerate(document["weights"])
        if listed != reported[j]
    ]
    try:
        entropy = weight_entropy(reported)
    except ValueError:  # outside the entropy's domain: no entropy_bits matches
        entropy = math.nan
    if not abs(entropy - document["entropy_bits"]) <= ENTROPY_ATOL:
        problems.append(f"entropy_bits is not the branch weights' entropy {entropy!r}")
    branches = [branch for branch in branches if branch is not None]
    return (BranchDecomposition(state, branches) if branches else None), problems

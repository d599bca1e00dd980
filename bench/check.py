"""Checks a decomposition report against the answer known by construction.

Also holds the report tamperings that the checker and ``lodecomp verify``
must both reject.  Reports are handled as parsed JSON documents in the
package's report format (schema_version 1).
"""

from __future__ import annotations

import copy
import math

import numpy as np

WEIGHT_ATOL = 1e-9
ENTROPY_ATOL = 1e-9
PROJECTOR_ATOL = 1e-8


def _basis(columns) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in col] for col in columns]).T


def check_report(document: dict, case) -> list:
    """Every way the report differs from ``case``'s answer; empty when it matches."""
    problems = []
    expected = case.weights
    try:
        count = document["branch_count"]
        weights = [float(w) for w in document["weights"]]
        branches = document["branches"]
        entropy = float(document["entropy_bits"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    if count != len(expected) or len(weights) != len(expected) or len(branches) != len(expected):
        return [
            f"branch count {count} (weights {len(weights)}, entries {len(branches)}), "
            f"expected {len(expected)}"
        ]
    if abs(entropy - case.entropy_bits) > ENTROPY_ATOL:
        problems.append(f"entropy_bits {entropy!r}, expected {case.entropy_bits!r}")
    for i, entry in enumerate(branches):
        for label, w in (("weights", weights[i]), ("branch weight", entry.get("weight"))):
            if not isinstance(w, (int, float)) or abs(w - expected[i]) > WEIGHT_ATOL:
                problems.append(f"branch {i}: {label} {w!r}, expected {float(expected[i])!r}")
        supports = entry.get("supports")
        if not isinstance(supports, list) or len(supports) != len(case.dims):
            problems.append(f"branch {i}: supports do not list every subsystem")
            continue
        for n, columns in enumerate(supports):
            try:
                basis = _basis(columns)
            except (TypeError, ValueError) as exc:
                problems.append(f"branch {i} subsystem {n}: malformed support: {exc!r}")
                continue
            if basis.shape[0] != case.dims[n]:
                problems.append(f"branch {i} subsystem {n}: support has wrong dimension")
                continue
            deviation = float(np.max(np.abs(basis @ basis.conj().T - case.projector(i, n))))
            if deviation > PROJECTOR_ATOL:
                problems.append(
                    f"branch {i} subsystem {n}: support projector off by {deviation:.2e}"
                )
    return problems


def _entropy(weights) -> float:
    return -sum(w * math.log2(w) for w in weights if w > 0)


def merge_branches(document: dict, a: int = 0, b: int = 1) -> dict:
    """Branches a and b merged into one: weights added, supports joined."""
    out = copy.deepcopy(document)
    first, second = out["branches"][a], out["branches"][b]
    first["weight"] += second["weight"]
    first["supports"] = [x + y for x, y in zip(first["supports"], second["supports"])]
    del out["branches"][b]
    out["branches"].sort(key=lambda entry: -entry["weight"])
    out["weights"] = [entry["weight"] for entry in out["branches"]]
    out["branch_count"] = len(out["branches"])
    out["entropy_bits"] = _entropy(out["weights"])
    return out


def shift_weight(document: dict, branch: int = 0, delta: float = 1e-6) -> dict:
    """One branch weight moved by ``delta``, in both places the report holds it."""
    out = copy.deepcopy(document)
    out["branches"][branch]["weight"] += delta
    out["weights"][branch] += delta
    return out


def rotate_support(document: dict, branch: int = 0, n: int = -1, angle: float = 1e-3) -> dict:
    """The first support column of ``branch`` on subsystem ``n`` turned by
    ``angle`` toward the first support column of the next branch.

    The two columns are orthonormal, so the turned column stays a unit
    vector; only the subspace moves.
    """
    out = copy.deepcopy(document)
    other = (branch + 1) % len(out["branches"])
    col = out["branches"][branch]["supports"][n][0]
    toward = out["branches"][other]["supports"][n][0]
    c, s = math.cos(angle), math.sin(angle)
    out["branches"][branch]["supports"][n][0] = [
        [c * x[0] + s * y[0], c * x[1] + s * y[1]] for x, y in zip(col, toward)
    ]
    return out

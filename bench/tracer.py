"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` rebinds each traced function, in every ``lodecomp``
module namespace that holds it, to a wrapper that times the call.  Module
globals are looked up at call time, so calls made inside the package are
timed too.  ``uninstall`` restores the originals.  Spans stay in memory
until ``take`` hands them over.
"""

from __future__ import annotations

import sys
import time

# (defining module, attribute); "Class.method" names a classmethod
TARGETS = (
    ("lodecomp.tensor", "apply_matrix_at"),
    ("lodecomp.spectral", "local_spectrum"),
    ("lodecomp.decomposition", "build_correlation_graph"),
    ("lodecomp.decomposition", "verify_lo"),
    ("lodecomp.decomposition", "maximal_decomposition"),
    ("lodecomp.fileio", "StateFile.read"),
    ("lodecomp.fileio", "report_document"),
    ("lodecomp.fileio", "report_to_json"),
    ("lodecomp.fileio", "parse_report"),
    ("lodecomp.fileio", "branches_from_report"),
)

# spans whose return value is kept, for the counts read from it
KEEP_RESULT = {"build_correlation_graph"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, seconds, result or None)
        self._restore = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        keep = name in KEEP_RESULT
        spans = self.spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            spans.append((name, clock() - start, result if keep else None))
            return result

        return timed

    def install(self, targets=TARGETS) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "lodecomp" or key.startswith("lodecomp."))
        ]
        for module_name, attr in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self._wrap(attr, original.__func__))
                self._restore.append((cls, method, original))
                setattr(cls, method, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()

    def take(self) -> list:
        """The spans recorded since the last call, oldest first."""
        out = list(self.spans)
        self.spans.clear()
        return out


def total(spans, *names) -> float:
    """Summed duration, in seconds, of the spans with the given names."""
    return sum(seconds for name, seconds, _ in spans if name in names)

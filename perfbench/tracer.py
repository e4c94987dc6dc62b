"""Spans around kreinx's layers, recorded from outside the package.

``Tracer.install`` rebinds every public kreinx function in every kreinx
module namespace that holds it (modules import with ``from .x import y``,
so a function is looked up where its caller imported it), plus the
library calls and methods named in ``EXTERNAL`` and ``METHODS``.
``uninstall`` puts every original back.  A span is ``(name, start, end,
parent index, request id)``; spans stay in memory, and ``aggregate``
turns them into calls and self time per name.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = (
    "bessel", "cli", "config", "csvio", "errors", "greens", "krein",
    "matrixmodel", "multiplier", "spectral", "verify",
)
# span names that differ from "<module>.<function>"
ALIASES = {
    "bessel.k0_right_half_plane": "bessel.k0",
    "greens.gbreve_g_radial_3d": "greens.gbreve_g",
    "greens.gbreve_g_quadrature_1d": "greens.gbreve_g",
}
# called once per matrix entry or CSV field: counted, not spanned
COUNT_ONLY = frozenset({"greens.off_branch_cut", "csvio.format_value"})
# library functions, wrapped where kreinx looks them up
EXTERNAL = (
    ("kreinx.greens", "quad", "greens.quad"),
    ("kreinx.multiplier", "quad", "multiplier.quad"),
    ("numpy.linalg", "inv", "linalg.inv"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "svd", "linalg.svd"),
)
# (module, class, method, span name, counter only)
METHODS = (
    ("kreinx.greens", "LaplacianGrid1DEvaluator", "r_apply", "greens.r_apply", False),
    # thousands of calls per pencil evaluation: counted, not spanned
    ("kreinx.multiplier", "Multiplier1D", "__call__", "multiplier.symbol_evals", True),
)


def _r_apply_bytes(args) -> int:
    """Bytes of the dense complex n x n kernel one r_apply builds."""
    n = args[0].xs.size
    return n * n * 16


BYTES = {"greens.r_apply": _r_apply_bytes}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.request = None
        self._stack = []
        self._targets = None
        self._saved = []

    # -- discovery ----------------------------------------------------

    def targets(self) -> list:
        """``(owner, attribute, span name, counter only)`` for every wrap."""
        if self._targets is not None:
            return self._targets
        found = []
        modules = [importlib.import_module("kreinx")] + [
            importlib.import_module(f"kreinx.{m}") for m in MODULES
        ]
        for mod in modules:
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and not value.__name__.startswith("_")
                    and value.__module__.startswith("kreinx.")
                ):
                    name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    name = ALIASES.get(name, name)
                    found.append((mod, attr, name, name in COUNT_ONLY))
        for mod, attr, name in EXTERNAL:
            found.append((importlib.import_module(mod), attr, name, False))
        for mod, cls, attr, name, count_only in METHODS:
            owner = getattr(importlib.import_module(mod), cls)
            if attr not in vars(owner):
                raise LookupError(f"{cls}.{attr} is not defined on {cls} itself")
            found.append((owner, attr, name, count_only))
        self._targets = found
        return found

    # -- wrapping -----------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock, nbytes = self.spans, self._stack, time.perf_counter, BYTES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if nbytes is not None:
                tracer.count(name + ".bytes", nbytes(args))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.request)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for owner, attr, name, count_only in self.targets():
            original = vars(owner)[attr]
            key = (id(original), name)
            if key not in wrappers:
                make = self._counter if count_only else self._span
                wrappers[key] = make(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counts (the wrappers keep working)."""
        del self.spans[:]
        self.counts.clear()
        del self._stack[:]


def aggregate(spans) -> dict:
    """``{name: [calls, self seconds]}``; self time is a span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (t1 - t0) - child[i]
    return out

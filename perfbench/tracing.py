"""Spans around rootsep's public functions, recorded from outside the library.

`Tracer.install()` replaces every public function of the traced modules at
each name a caller looks it up by: the defining module, every other rootsep
module that imported it (`rootsep.cli.find_roots`, `rootsep.bounds.find_roots`,
...), the package namespace, and the `bounds._DISPATCH` table that `verify`
indexes. `uninstall()` puts the originals back, so untraced ops run the
library exactly as shipped.

Each span records (span id, name, start, end, parent span id, op id). Self
time is a span's duration minus the durations of its direct child spans; in
one thread, children nest inside their parent and do not overlap.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

#: the package's modules, one layer each
LAYERS = (
    "parsing", "poly", "roots", "invariants", "divdiff",
    "balls", "graph", "bounds", "sweep", "cli",
)


@dataclass
class FnStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # inclusive, outermost spans only
    failed: int = 0
    depth: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, FnStats] = {}
        self.op_id: int | None = None
        self.pseudo_rem_max_bits = 0
        # one entry per finished `bounds.verify` call: (attempts, verdict, bits)
        self.verify_calls: list[tuple[int, str | None, int | None]] = []
        self._stack: list[list] = []  # [span id, name, child seconds, attempts]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats.setdefault(name, FnStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, 0.0, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            stats.depth += 1
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += duration - frame[2]
                if stats.depth == 0:
                    stats.total_s += duration
                if not ok:
                    stats.failed += 1
                if parent is not None:
                    parent[2] += duration
                    if parent[1] == "bounds.verify" and name.startswith("bounds.bound_"):
                        parent[3] += 1
                self.spans.append(
                    (frame[0], name, start, end, parent[0] if parent else None, self.op_id)
                )
                if ok:
                    self._observe(name, frame, result)

        return traced

    def _observe(self, name: str, frame: list, result) -> None:
        """Counts taken from a function's result, outside its span."""
        if name == "poly.pseudo_rem":
            bits = 0
            for c in result.coeffs:
                for q in (c.re, c.im):
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
            self.pseudo_rem_max_bits = max(self.pseudo_rem_max_bits, bits)
        elif name == "bounds.verify":
            holds = result.verdict == "holds"
            self.verify_calls.append(
                (frame[3], result.verdict, result.precision_bits if holds else None)
            )

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"rootsep.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        modules = [m for n, m in sys.modules.items() if n == "rootsep" or n.startswith("rootsep.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        dispatch = sys.modules["rootsep.bounds"]._DISPATCH
        for key, fn in list(dispatch.items()):
            if id(fn) in wrappers:
                self._patch_item(dispatch, key, wrappers[id(fn)])

    def _patch(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def _patch_item(self, table: dict, key, new) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = new

    def uninstall(self) -> None:
        for target, key, old in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches.clear()

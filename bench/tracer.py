"""Outside-in span tracing of the ikernel public API.

The tracer wraps named functions and methods of an already imported
`ikernel` package. Every call to a wrapped function records one span: its
name, start, end, parent span and the benchmark operation it belongs to.
Spans live in flat arrays in memory and are written out once, at the end of
a run. Nothing inside the package is edited; the wrappers are installed by
rebinding names, and removed again by `uninstall`.

A wrapped name is rebound everywhere the package holds a reference to the
original object: as a module global of any `ikernel.*` module (so
`from .derivation import kernel_graded_basis` in `harness` is covered), as
a value of a module-level dict (the verifier table in `harness`), and under
every alias in a class body (`Polynomial.__rmul__ = __mul__`). A target that
no longer exists is recorded as absent rather than raising, so the tracer
keeps working while the package is refactored.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

SETUP_OP = 0


@dataclass(frozen=True)
class Target:
    """One function to wrap: span name, module under `ikernel`, qualname.

    `label` maps the call's (args, kwargs) to a suffix of the span name;
    `probe` inspects the arguments before the call and returns a mapping of
    sample name to number (or None when the object no longer has the
    expected shape); `count_true` counts calls that returned True.
    """

    span: str
    module: str
    qualname: str
    label: Callable | None = None
    probe: Callable | None = None
    count_true: str | None = None


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = SETUP_OP
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def _record_probe(self, target: Target, args, kwargs) -> None:
        index = self.open("trace.probe")
        try:
            values = target.probe(args, kwargs)
        finally:
            self.close(index)
        if values is None:
            label = f"{target.span}:{target.module}.{target.qualname} (probe)"
            if label not in self.absent:
                self.absent.append(label)
            return
        for key, value in values.items():
            self.samples.setdefault(key, []).append(value)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.probe is not None:
                tracer._record_probe(target, args, kwargs)
            name = target.span
            if target.label is not None:
                name = f"{name}.{target.label(args, kwargs)}"
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.count_true is not None and result is True:
                counters = tracer.counters
                counters[target.count_true] = counters.get(target.count_true, 0) + 1
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def _set(self, owner, key, value, is_dict: bool) -> None:
        if is_dict:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def install(self, package, targets: list[Target]) -> None:
        """Wrap every target that exists in `package` (an imported ikernel)."""
        prefix = package.__name__
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for target in targets:
            module = sys.modules.get(f"{prefix}.{target.module}")
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{target.span}:{target.module}.{target.qualname}")
                continue
            raw = vars(owner)[attr]
            if owner_name:
                self._install_method(owner, raw, target)
            else:
                self._install_function(modules, raw, target)

    def _install_method(self, cls, raw, target: Target) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, target))
        else:
            wrapped = self.wrap(raw, target)
        for key, value in list(vars(cls).items()):
            if value is raw:
                self._set(cls, key, wrapped, False)

    def _install_function(self, modules, raw, target: Target) -> None:
        wrapped = self.wrap(raw, target)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, wrapped, False)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is raw:
                            self._set(value, dkey, wrapped, True)

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON document (columns, not objects)."""
        data = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))


def self_times(tracer: Tracer) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    Spans come from one thread and close in stack order, so children never
    overlap each other and always lie inside their parent.
    """
    own = [e - s for s, e in zip(tracer.start, tracer.end)]
    for index, parent in enumerate(tracer.parent):
        if parent >= 0:
            own[parent] -= tracer.end[index] - tracer.start[index]
    return own


def has_descendant(tracer: Tracer, wanted: set[str], ancestors: set[str]) -> set[int]:
    """Spans named in `ancestors` that contain a span named in `wanted`."""
    wanted_ids = {tracer._ids[n] for n in wanted if n in tracer._ids}
    ancestor_ids = {tracer._ids[n] for n in ancestors if n in tracer._ids}
    found: set[int] = set()
    for index, ident in enumerate(tracer.name_id):
        if ident not in wanted_ids:
            continue
        up = tracer.parent[index]
        while up >= 0:
            if tracer.name_id[up] in ancestor_ids:
                if up in found:
                    break  # every ancestor above is already marked
                found.add(up)
            up = tracer.parent[up]
    return found

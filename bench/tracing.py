"""Span tracer that wraps the public functions of the rdosr modules from
outside the package.

A function imported into several modules is a separate binding in each
(``models.softmax_xent`` and ``dirichletnet.affine`` are looked up in their
caller's namespace), so every binding is replaced, each by the one wrapper of
the underlying function. Methods of public classes are wrapped on the class.
Spans (name, parent, start, end) are kept in flat arrays while the run goes
and written when it ends; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

import numpy as np

MODULES = ("diffcore", "dirichletnet", "models", "data", "openset", "cli")


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        # per-span numbers taken from call arguments (rows, computed flops
        # and bytes); keyed by span index
        self.extra: dict[str, dict[int, float]] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def note(self, kind: str, i: int, value: float) -> None:
        self.extra.setdefault(kind, {})[i] = value

    def hook(self, name: str, fn) -> None:
        """Call fn(tracer, span_index, args) whenever span `name` opens."""
        self._hooks[name] = fn

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = self._hooks.get(name)
        opener, closer, clock = self._open, self._close, perf_counter_ns
        start = self.start

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = opener(nid)
            if hook is not None:
                hook(self, i, args)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                closer(i)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}

        def wrapped(fn, name):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
            return wrappers[id(fn)]

        for modname in MODULES:
            module = getattr(self.package, modname)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if _traceable(obj):
                    origin = obj.__module__.rsplit(".", 1)[-1]
                    self._replace(module, attr, wrapped(obj, f"{origin}.{obj.__name__}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(obj, f"{modname}.{obj.__name__}", wrapped)

    def _install_class(self, cls, prefix: str, wrapped) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)) and _traceable(member.__func__):
                self._replace(cls, attr, type(member)(wrapped(member.__func__, name)))
            elif _traceable(member):
                self._replace(cls, attr, wrapped(member, name))

    def _replace(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        arrays = self.arrays()
        np.savez(path, names=np.array(self.names), **arrays)


def span(tracer: Tracer | None, name: str):
    """A benchmark span when tracing, else nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self) -> int:
        self.i = self.tracer._open(self.nid)
        self.tracer.start[self.i] = perf_counter_ns()
        return self.i

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.i)


def _traceable(obj) -> bool:
    # generators would only be timed while they are created
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith("rdosr.")
        and not inspect.isgeneratorfunction(obj)
    )


class Spans:
    """Vectorised queries over a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.extra = tracer.extra
        self.name = a["name"]
        self.parent = a["parent"]
        self.start = a["start_ns"]
        self.end = a["end_ns"]
        self.dur = (self.end - self.start).astype(np.float64)
        child = np.zeros(self.name.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child

    def ids(self, name: str | None) -> np.ndarray:
        if name is None:
            return np.arange(self.name.size)
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def select(self, name: str | None, *within) -> np.ndarray:
        """Spans called `name` (any name for None) that start inside a span
        of each `within` entry, itself a name or a tuple of names."""
        idx = self.ids(name)
        for names in within:
            names = (names,) if isinstance(names, str) else names
            idx = idx[self.inside(self.start[idx], names) & ~np.isin(self.name[idx], self._nids(names))]
        return idx

    def count(self, name: str | None, *within) -> int:
        return int(self.select(name, *within).size)

    def total_s(self, name: str, *within, self_time: bool = False) -> float:
        idx = self.select(name, *within)
        return float((self.self_ns if self_time else self.dur)[idx].sum()) / 1e9

    def mean_s(self, name: str, *within, self_time: bool = False) -> float:
        n = self.count(name, *within)
        return self.total_s(name, *within, self_time=self_time) / n if n else 0.0

    def extra_sum(self, kind: str, name: str, *within) -> float:
        values = self.extra.get(kind, {})
        return float(sum(values.get(int(i), 0.0) for i in self.select(name, *within)))

    def _nids(self, names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def inside(self, times: np.ndarray, names) -> np.ndarray:
        """Mask of the instants that fall inside a span of any of `names`;
        those spans must not nest in one another."""
        outer = np.concatenate([self.ids(n) for n in names])
        if outer.size == 0:
            return np.zeros(times.size, dtype=bool)
        outer = outer[np.argsort(self.start[outer])]
        k = np.searchsorted(self.start[outer], times, side="right") - 1
        ok = k >= 0
        ok[ok] = times[ok] < self.end[outer[k[ok]]]
        return ok

    def covered_s(self, kernels, within) -> float:
        """Seconds inside `within` spans that some kernel span covers."""
        idx = np.sort(np.concatenate([self.select(n, within) for n in kernels]))
        if idx.size == 0:
            return 0.0
        # spans nest or are disjoint, so the outermost ones tile the union
        ends = self.end[idx]
        prev_end = np.concatenate([[np.iinfo(np.int64).min], np.maximum.accumulate(ends)[:-1]])
        outer = self.start[idx] >= prev_end
        return float(self.dur[idx[outer]].sum()) / 1e9

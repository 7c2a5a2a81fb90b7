"""Span tracer that times calls into the hyperberry modules from outside.

``Tracer.install`` replaces every function, method and property getter that a
hyperberry module defines (and every name a module imported from another
hyperberry module) with a wrapper that records a span: name, start, end and
the index of the enclosing span.  Nothing under ``src/`` is edited; the
wrappers live only in the traced process and ``uninstall`` puts the
originals back.

Spans are kept in memory in flat arrays and written out by ``write``.
Aggregates (calls, inclusive and self time per name, outermost inclusive
time per group of names) are updated as spans close, so the per-layer
metrics do not need a second pass over the spans.  Each wrapper's own
bookkeeping lands inside its parent's span; with ``per_span`` set to that
cost (see ``calibrate``), the aggregates subtract it -- once per direct
child from self time, once per descendant from inclusive time.
"""
from __future__ import annotations

import functools
import inspect
import time
import types
from array import array
from collections import defaultdict

MODULES = (
    "params",
    "exact",
    "gaussian",
    "stirling",
    "bounds",
    "lattice",
    "grids",
    "lab",
    "cli",
)

#: Dunder methods that do real work; generated ones (__eq__, __hash__,
#: __repr__, a dataclass __init__) are left alone so cache lookups and
#: result construction are not inflated.
_WRAPPED_DUNDERS = ("__init__", "__post_init__")


class Tracer:
    """In-memory span recorder; one per traced replay."""

    def __init__(self, groups: dict[str, tuple[str, ...]] | None = None, per_span: float = 0.0):
        self.per_span = per_span
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._children: list[int] = []      # direct children of each open span
        self._descendants: list[int] = []   # all spans nested in each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        # group name -> outermost inclusive seconds; a name may sit in several
        self._group_of: dict[str, tuple[str, ...]] = defaultdict(tuple)
        for group, members in (groups or {}).items():
            self.add_group(group, members)
        self._group_depth: dict[str, int] = defaultdict(int)
        self.group_time: dict[str, float] = defaultdict(float)
        self.group_calls: dict[str, int] = defaultdict(int)
        # name -> callable(tracer, args, kwargs, result) run after a span closes
        self.hooks: dict[str, object] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.root_time = 0.0  # summed duration of spans with no parent
        self._patches: list[tuple[object, str, object]] = []
        self.labels: set[str] = set()

    # ---- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def active(self, group: str) -> bool:
        """True while a span of ``group`` is open."""
        return self._group_depth[group] > 0

    def call(self, name: str, fn, args, kwargs):
        nid = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        groups = self._group_of[name]
        for g in groups:
            self._group_depth[g] += 1
        self._stack.append(idx)
        self._child_time.append(0.0)
        self._children.append(0)
        self._descendants.append(0)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        failed = True
        result = None
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self.span_end[idx] = end
            self._stack.pop()
            child = self._child_time.pop()
            children = self._children.pop()
            descendants = self._descendants.pop()
            dur = end - start
            if self._child_time:
                self._child_time[-1] += dur
                self._children[-1] += 1
                self._descendants[-1] += descendants + 1
            else:
                self.root_time += dur
            own = dur - self.per_span * descendants
            self.calls[name] += 1
            self.inclusive[name] += own
            self.self_time[name] += dur - child - self.per_span * children
            if failed:
                self.errors[name] += 1
            for g in groups:
                self._group_depth[g] -= 1
                if self._group_depth[g] == 0:
                    self.group_time[g] += own
                    self.group_calls[g] += 1
            hook = self.hooks.get(name)
            if hook is not None and not failed:
                hook(self, args, kwargs, result)

    # ---- installation ----------------------------------------------------

    @staticmethod
    def calibrate(calls: int = 20_000) -> float:
        """Seconds one wrapper adds to its caller, from a no-op function."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.perf_counter() - t0 - plain) / calls)

    def add_group(self, group: str, members) -> None:
        for member in members:
            self._group_of[member] += (group,)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the callables of every module in ``MODULES`` of ``package``."""
        wrappers: dict[int, object] = {}
        classes_done: set[int] = set()
        prefix = package.__name__ + "."
        for short in MODULES:
            module = getattr(package, short, None)
            if module is None:
                module = __import__(prefix + short, fromlist=["_"])
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, type) and obj.__module__.startswith(prefix):
                    if id(obj) not in classes_done:
                        classes_done.add(id(obj))
                        self._install_class(obj)
                    continue
                if not isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    continue
                owner_mod = obj.__module__ or ""
                if not owner_mod.startswith(prefix):
                    continue
                if inspect.isgeneratorfunction(obj):
                    # a generator's body runs after the call returns; its
                    # work is attributed to whoever iterates it
                    continue
                if id(obj) not in wrappers:
                    label = f"{owner_mod[len(prefix):]}.{obj.__qualname__}"
                    self.labels.add(label)
                    wrappers[id(obj)] = self._wrap(label, obj)
                self._patch(module, attr, wrappers[id(obj)])

    def _install_class(self, cls) -> None:
        mod = cls.__module__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(cls).items()):
            label = f"{mod}.{cls.__qualname__}.{attr}"
            self.labels.add(label)
            if isinstance(obj, property) and obj.fget is not None:
                self._patch(cls, attr, property(self._wrap(label, obj.fget), obj.fset, obj.fdel, obj.__doc__))
            elif isinstance(obj, types.FunctionType):
                if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
                    continue
                if attr == "__init__" and hasattr(cls, "__dataclass_fields__"):
                    continue  # generated field assignment, not library work
                self._patch(cls, attr, self._wrap(label, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(label, obj.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ---- output ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def module_self_ms(self) -> dict[str, float]:
        """Self time per hyperberry module, in ms."""
        out = {m: 0.0 for m in MODULES}
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds * 1e3
        return out

    def write(self, path: str) -> None:
        """One line per span: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )

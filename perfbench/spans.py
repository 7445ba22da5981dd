"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped library function: its name, start, end and
the span that was open when it began.  Count-only wrappers record an event
(name and open span) instead, for functions whose time belongs to their
caller.  Wrappers replace the library's module attributes, so every caller
that looks the function up at call time goes through them; ``restore`` puts
the originals back and ``reinstall`` the wrappers again.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self.events: list[tuple[str, int]] = []
        self.largest: dict[str, tuple[int, tuple]] = {}
        self.absent: list[str] = []
        self._stack = [NO_PARENT]
        self._on = [True]
        self._patches: list[tuple[object, str, object, object]] = []

    @property
    def on(self) -> bool:
        return self._on[0]

    @contextmanager
    def paused(self):
        """Calls made inside the block pass straight through, unrecorded."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, size=None, keep_largest=False):
        """Wrap fn so each call records a span; size(*args) tags it with a size."""
        names, starts, ends, parents, sizes = (
            self.names, self.starts, self.ends, self.parents, self.sizes
        )
        stack = self._stack
        largest = self.largest
        on = self._on

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            n = size(*args) if size is not None else 0
            sizes.append(n)
            if keep_largest and n > largest.get(name, (-1,))[0]:
                largest[name] = (n, args)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call records a count event under the open span."""
        events = self.events
        stack = self._stack
        on = self._on

        def wrapper(*args, **kwargs):
            if on[0]:
                events.append((name, stack[-1]))
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def patch(self, module, attr: str, make_wrapper) -> None:
        """Replace every binding of ``module.attr`` inside the package.

        A name the package no longer has is noted in ``absent`` as
        ``<module>.<attr>``, the module named without the package prefix.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{self._short(module.__name__)}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapper))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.absent.append(f"{self._short(cls.__module__)}.{cls.__name__}")
            return
        wrapper = make_wrapper(original)
        self._patches.append((cls, attr, original, wrapper))
        setattr(cls, attr, wrapper)

    def _short(self, module_name: str) -> str:
        return module_name.removeprefix(self.package + ".")

    def restore(self) -> None:
        """Put every original back; ``reinstall`` applies the wrappers again."""
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def reinstall(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, summed size.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because every call is synchronous.
        """
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            dur = self.ends[idx] - self.starts[idx]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[idx]
            row["size"] += self.sizes[idx]
        return out

    def count_spans(self, name: str, parent_name: str | None = None) -> int:
        return sum(
            1
            for idx, n in enumerate(self.names)
            if n == name
            and (parent_name is None or self._name_of(self.parents[idx]) == parent_name)
        )

    def count_events(self, name: str, parent_name: str | None = None) -> int:
        return sum(
            1
            for n, parent in self.events
            if n == name and (parent_name is None or self._name_of(parent) == parent_name)
        )

    def median_ms(self, name: str, size: int) -> float:
        """Median wall time in ms of the spans of one name and size (0.0 if none)."""
        durs = [
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names)
            if n == name and self.sizes[i] == size
        ]
        return 1e3 * statistics.median(durs) if durs else 0.0

    def _name_of(self, idx: int) -> str | None:
        return None if idx == NO_PARENT else self.names[idx]

    def write_csv(self, path) -> None:
        """One line per span: index, name, start and end in ns, parent index, size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,size\n")
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{idx},{name},{int(self.starts[idx] * 1e9)},{int(self.ends[idx] * 1e9)},"
                    f"{self.parents[idx]},{self.sizes[idx]}\n"
                )

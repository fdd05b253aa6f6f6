"""Span recorder for the traced benchmark run.

The benchmark wraps the public entry points of each package module from
outside the package: it replaces a module attribute (or a class method)
with a wrapper that opens a span, calls the original and closes the span.
Spans live in memory as parallel arrays (name, parent, start, end) and
are written out once the run ends.  A span's self time is its duration
minus the time its child spans cover.

A generator is traced as one span per resumption, so a generator's self
time is the time spent inside it and not the time its consumer spends
between items.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter


class Tracer:
    """Spans of one traced pass, plus per-name call counts and extra counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.labels: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a traced wrapper of the function it holds."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patch(owner, attr, fn, traced)

    def wrap_generator(self, owner, attr: str, name: str, items_counter: str, nonempty_counter=None) -> None:
        """Replace a generator function; count calls, items and calls with an item."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            gen = fn(*args, **kwargs)
            items = 0
            try:
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        tracer.close(idx)
                    items += 1
                    yield item
            finally:
                gen.close()
                tracer.add(items_counter, items)
                if nonempty_counter is not None and items:
                    tracer.add(nonempty_counter)

        self._patch(owner, attr, fn, traced)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the time child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: 0.0 for name in self.names}
        names = self.names
        for i in range(n):
            out[names[self.name[i]]] += end[i] - start[i] - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated row: id, parent, job, name, start, end."""
        n = len(self.start)
        job = [-1] * n
        t0 = self.start[0] if n else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# span\tparent\tjob\tname\tstart_us\tend_us\n")
            for label_idx, label in sorted(self.labels.items()):
                fh.write(f"# job {label_idx}: {label}\n")
            for i in range(n):
                p = self.parent[i]
                job[i] = i if p < 0 else job[p]
                fh.write(
                    f"{i}\t{p}\t{job[i]}\t{self.names[self.name[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )

"""Span recording from outside the library, by patching module attributes.

``growth``, ``extension``, ``pipeline``, ``cli`` and ``oracle`` bind the graph
and orientation functions by name at import, so a wrapper has to replace the
attribute in every module that holds the function, not only where it is
defined. ``Tracer.install`` does that; ``Tracer.uninstall`` restores the
originals. Spans stay in memory as plain lists and are written once, at the
end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import orientdiam
from orientdiam import cli, extension, generators, graph, growth, oracle, orientation, pipeline

MODULES = (orientdiam, graph, orientation, growth, extension, pipeline, cli, oracle, generators)

# (defining module, function name, span name, counts visited vertices)
TRACED = (
    (graph, "bfs_distances", "graph.bfs", True),
    (graph, "shortest_path_between", "graph.path", False),
    (graph, "bridges_of", "graph.bridges", False),
    (graph, "ball", "graph.ball", False),
    (graph, "girth", "graph.girth", False),
    (orientation, "directed_distances_from", "orientation.dbfs", True),
    (orientation, "directed_distances_to", "orientation.dbfs", True),
    (orientation, "is_strong", "orientation.is_strong", False),
    (orientation, "directed_diameter", "orientation.diameter", False),
    (orientation, "orient_adjacency", "orientation.orient_core", False),
    (growth, "grow_core", "growth.grow", False),
    (growth, "cover_path", "growth.cover_path", False),
    (extension, "extend_orientation", "extension.extend", False),
    (extension, "core_directed_diameter", "extension.core_diameter", False),
    (oracle, "directed_diameter_of_arcs", "oracle.cross_check", False),
)

# span fields: name, start, end, parent index, root index, graph id, visited
NAME, START, END, PARENT, ROOT, GRAPH, VISITED = range(7)


class Tracer:
    """Records nested spans for the wrapped functions and the caller's own calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.graph_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for home, fname, span_name, count in TRACED:
            original = getattr(home, fname)
            wrapper = self._wrap(original, span_name, count)
            for mod in MODULES:
                if getattr(mod, fname, None) is original:
                    self._patches.append((mod, fname, original, wrapper))

    def _wrap(self, fn, span_name: str, count: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count:
                self.spans[idx][VISITED] = len(out) - out.count(math.inf)
            return out

        return wrapper

    def install(self) -> None:
        for mod, fname, _, wrapper in self._patches:
            setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original, _ in self._patches:
            setattr(mod, fname, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, self.graph_id, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name; the span closes on any exit."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanSummary:
    """Totals per span name over spans[lo:hi]: calls, inclusive time, self time, visited.

    Self time is a span's duration minus the durations of its direct children.
    Every duration is multiplied by ``factor(root span)``, so all spans under
    one top-level call share that call's speed correction.
    """

    def __init__(self, spans: list[list], lo: int, hi: int, factor=lambda root: 1.0):
        self.spans = spans
        self.lo, self.hi = lo, hi
        factors: dict[int, float] = {}
        self.duration: dict[int, float] = {}
        for i in range(lo, hi):
            s = spans[i]
            if s[ROOT] not in factors:
                factors[s[ROOT]] = factor(spans[s[ROOT]])
            self.duration[i] = (s[END] - s[START]) * factors[s[ROOT]]
        self.child_time: dict[int, float] = defaultdict(float)
        for i in range(lo, hi):
            if spans[i][PARENT] >= lo:
                self.child_time[spans[i][PARENT]] += self.duration[i]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.visited: dict[str, int] = defaultdict(int)
        for i in range(lo, hi):
            s = spans[i]
            duration = self.duration[i]
            self.calls[s[NAME]] += 1
            self.total[s[NAME]] += duration
            self.self_time[s[NAME]] += duration - self.child_time[i]
            self.visited[s[NAME]] += s[VISITED]

    def indices(self, name: str):
        return (i for i in range(self.lo, self.hi) if self.spans[i][NAME] == name)

    def children_total(self, parent_name: str, child_names: set[str]) -> float:
        """Inclusive time of direct children with the given names under parent spans."""
        parents = set(self.indices(parent_name))
        return sum(
            self.duration[i]
            for i in range(self.lo, self.hi)
            if self.spans[i][PARENT] in parents and self.spans[i][NAME] in child_names
        )

    def calls_under_root(self, name: str, root_name: str) -> int:
        return sum(
            1
            for i in self.indices(name)
            if self.spans[self.spans[i][ROOT]][NAME] == root_name
        )

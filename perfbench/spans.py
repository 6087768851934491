"""In-memory span recorder, attached to matchlat's layers from outside.

A span is ``[name, start, end, parent, job]``: ``perf_counter`` seconds,
the index of the enclosing span (-1 at the top) and the job id.  Spans
stay in a list until the pass ends; ``self_times`` turns them into each
span's self time, its duration minus the part covered by its children.

``instrument`` replaces each traced public function by a recording
wrapper in every loaded ``matchlat`` module that holds a reference to
it, so calls between layers (``matching_lattice`` calling
``matching_poset`` calling ``build_z_digraph``) nest as they run.
Nothing under ``src/`` changes; ``restore`` puts the originals back.
Spans named ``probe`` are the speed probes of speed.py: their time comes
out of the span they interrupt, and they belong to no layer.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (module, function, span name): the public calls into each layer.  The
# CLI's own JSON helpers count as export, because the text is made there.
TRACED = (
    ("matchlat.plane_graph", "load_graph_file", "plane_graph.load"),
    ("matchlat.plane_graph", "load_graph_json", "plane_graph.load"),
    ("matchlat.plane_graph", "load_graph", "plane_graph.load"),
    ("matchlat.matching", "enumerate_perfect_matchings", "matching.enumerate"),
    ("matchlat.ztransform", "build_z_digraph", "ztransform.zdig"),
    ("matchlat.ztransform", "matching_poset", "ztransform.poset"),
    ("matchlat.ztransform", "matching_lattice", "ztransform.lattice"),
    ("matchlat.lattice", "irreducible_decomposition", "lattice.decompose"),
    ("matchlat.lattice", "central_elements", "lattice.central"),
    ("matchlat.export", "graph_to_dot", "export.emit"),
    ("matchlat.export", "dual_to_dot", "export.emit"),
    ("matchlat.export", "zdigraph_to_dot", "export.emit"),
    ("matchlat.export", "poset_to_dot", "export.emit"),
    ("matchlat.export", "lattice_to_dot", "export.emit"),
    ("matchlat.export", "matchings_to_json", "export.emit"),
    ("matchlat.cli", "_dump_json", "export.emit"),
    ("matchlat.cli", "_emit", "export.emit"),
)


# Counts are taken once per distinct object (the key), because the
# cached layers hand the same result to every caller of one graph.
COUNTERS = {
    "enumerate_perfect_matchings":
        lambda args, r: ("matching.matchings", r, len(r)),
    "build_z_digraph": lambda args, r: ("ztransform.arcs", r, len(r.arcs)),
    # meet and join are n x n int32 tables
    "matching_lattice": lambda args, r: ("lattice.table_bytes", r, 2 * 4 * r.n ** 2),
    "irreducible_decomposition": lambda args, r: (
        "lattice.irreducibles", args[0], sum(map(len, r.factor_irreducibles))
    ),
    "_emit": lambda args, r: ("export.bytes", None, len(args[0])),
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.job = -1
        self._stack: list[int] = []
        self._counted: set[tuple[str, int]] = set()
        self._pinned: list = []  # keeps counted keys alive so ids stay unique
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.job]
        # list the span before making it the parent: a speed probe's span
        # (speed.py) can open between any two of these statements
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def count(self, name: str, key, value: int) -> None:
        if key is not None:
            if (name, id(key)) in self._counted:
                return
            self._counted.add((name, id(key)))
            self._pinned.append(key)
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, counter=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                self.count(*counter(args, result))
            return result

        return traced

    def instrument(self) -> None:
        """Wrap every TRACED function and the verify suites in place."""
        wrapped = {}
        for module, attr, name in TRACED:
            fn = getattr(sys.modules[module], attr)
            wrapped[id(fn)] = self.wrap(name, fn, COUNTERS.get(attr))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "matchlat" and not mod_name.startswith("matchlat."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])
        verify = sys.modules["matchlat.verify"]
        suites = {
            suite: tuple(self.wrap(f"verify.{suite}", check) for check in checks)
            for suite, checks in verify.SUITES.items()
        }
        self._patch(verify, "SUITES", suites)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own

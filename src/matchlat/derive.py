"""Derived structure shared by the graph, order and generator layers.

``component_labels`` is the package's one connected-components routine.
``per_object`` memoises a one-argument function on the argument itself,
so a derived result (matchings, flip digraph, orders, decompositions)
lives exactly as long as the graph or lattice it describes.
"""

from __future__ import annotations

from functools import wraps
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


def component_labels(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Connected-component label of each node 0..n-1 of an undirected graph.

    Labels count up from 0 in the order of each component's smallest node.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * n
    count = 0
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = count
        stack = [root]
        while stack:
            for y in adj[stack.pop()]:
                if label[y] < 0:
                    label[y] = count
                    stack.append(y)
        count += 1
    return label


def per_object(fn: Callable[[object], T]) -> Callable[[object], T]:
    """Memoise ``fn(obj)`` in ``obj.__dict__``, so the entry dies with ``obj``.

    A module-level cache keyed by value would hold every graph ever passed, and
    everything derived from it, until the process exits.
    """
    key = f"_memo_{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoised(obj):
        memo = obj.__dict__
        if key not in memo:
            memo[key] = fn(obj)
        return memo[key]

    return memoised

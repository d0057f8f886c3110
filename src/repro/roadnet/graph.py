"""Directed road network G = (V, E) with per-vertex outgoing-edge numbering.

Definition 1 (§2.1): vertices carry 2D coordinates; edges are directed.
Definition 6 (§2.2): the *outgoing edge number* ``no ≥ 1`` of ``(vs → ve)``
says that the edge is the ``no``-th exit of ``vs`` — TED and UTCQ encode edge
sequences as runs of these small numbers, so the numbering (the order of the
adjacency lists) is part of the network definition and must be stable.

The object is pickled into a Spark broadcast variable by the compression and
query jobs, so it keeps plain-dict state only.
"""
from __future__ import annotations

import math
from collections import deque


class RoadNetwork:
    """Directed graph with ordered adjacency (outgoing numbering) and lengths.

    Parameters
    ----------
    coords:
        ``{vertex_id: (x, y)}`` in meters.
    adjacency:
        ``{vertex_id: [out_neighbor, ...]}`` — list order defines the
        outgoing edge numbers (1-based).
    lengths:
        optional ``{(u, v): length_m}``; euclidean distance by default.
    """

    def __init__(
        self,
        coords: dict[int, tuple[float, float]],
        adjacency: dict[int, list[int]],
        lengths: dict[tuple[int, int], float] | None = None,
    ) -> None:
        self.coords = dict(coords)
        self.adj = {u: list(vs) for u, vs in adjacency.items()}
        for u in self.coords:
            self.adj.setdefault(u, [])
        unknown = set(self.adj) - set(self.coords)
        if unknown:
            raise ValueError(f"adjacency references unknown vertices: {sorted(unknown)[:5]}")
        self._edge_no: dict[tuple[int, int], int] = {}
        for u, vs in self.adj.items():
            if len(set(vs)) != len(vs):
                raise ValueError(f"duplicate out-edge from {u}")
            for i, v in enumerate(vs):
                if v not in self.coords:
                    raise ValueError(f"edge ({u}->{v}) to unknown vertex")
                self._edge_no[(u, v)] = i + 1
        self.lengths = dict(lengths) if lengths else {}
        for (u, v) in self._edge_no:
            if (u, v) not in self.lengths:
                self.lengths[(u, v)] = self.euclid(u, v)
        self._max_out = max((len(vs) for vs in self.adj.values()), default=1)
        self._max_len = max(self.lengths.values(), default=0.0)

    # -- basic properties -------------------------------------------------
    @property
    def max_out_degree(self) -> int:
        """``o`` in the paper: drives the ⌈log₂ o⌉-bit edge-number codes."""
        return self._max_out

    @property
    def max_edge_length(self) -> float:
        """Longest edge: how far past a region an instance can be while
        its edge still reaches into it (range-query cell padding)."""
        return self._max_len

    def avg_out_degree(self) -> float:
        verts = [u for u, vs in self.adj.items() if vs]
        if not verts:
            return 0.0
        return sum(len(self.adj[u]) for u in verts) / len(verts)

    def euclid(self, u: int, v: int) -> float:
        (x1, y1), (x2, y2) = self.coords[u], self.coords[v]
        return math.hypot(x2 - x1, y2 - y1)

    # -- outgoing-edge numbering ------------------------------------------
    def out_no(self, u: int, v: int) -> int:
        """Outgoing edge number (1-based) of edge ``(u → v)``."""
        try:
            return self._edge_no[(u, v)]
        except KeyError:
            raise KeyError(f"no edge ({u}->{v})") from None

    def out_edge(self, u: int, no: int) -> int:
        """Destination of the ``no``-th (1-based) out-edge of ``u``."""
        try:
            return self.adj[u][no - 1]
        except IndexError:
            raise KeyError(f"vertex {u} has no out-edge #{no}") from None

    def edge_length(self, u: int, v: int) -> float:
        return self.lengths[(u, v)]

    # -- paths -------------------------------------------------------------
    def alt_paths(
        self,
        u: int,
        v: int,
        forbidden_first: int,
        max_depth: int = 4,
        limit: int = 8,
    ):
        """Yield up to ``limit`` simple vertex paths ``u → … → v`` (BFS
        order, so shortest first) whose first hop differs from
        ``forbidden_first``.  The trajectory generator prefers paths of the
        same length as the replaced segment, which keeps T′ identical
        across instances (the Fig. 2 Tu¹₂ pattern)."""
        q: deque[list[int]] = deque()
        for w in self.adj[u]:
            if w != forbidden_first:
                q.append([u, w])
        found = 0
        while q and found < limit:
            path = q.popleft()
            last = path[-1]
            if last == v:
                found += 1
                yield path
                continue
            if len(path) - 1 >= max_depth:
                continue
            for w in self.adj[last]:
                if w not in path:  # simple paths only
                    q.append(path + [w])

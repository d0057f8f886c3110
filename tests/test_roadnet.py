"""Road-network substrate tests: numbering, paths, generator, grid geometry."""
import math

import pytest

from repro.core.model import TedTuple, ted_path
from repro.roadnet import (
    NETWORK_PROFILES,
    Rect,
    RoadNetwork,
    SpatialGrid,
    grid_network,
)


@pytest.fixture(scope="module")
def net() -> RoadNetwork:
    return grid_network("test")


class TestRoadNetworkBasics:
    def test_simple_numbering(self):
        g = RoadNetwork(
            coords={1: (0, 0), 2: (1, 0), 3: (0, 1)},
            adjacency={1: [2, 3], 2: [1], 3: []},
        )
        assert g.out_no(1, 2) == 1
        assert g.out_no(1, 3) == 2
        assert g.out_edge(1, 2) == 3
        assert g.max_out_degree == 2
        assert len(g.lengths) == 3

    def test_max_edge_length(self):
        g = RoadNetwork(
            coords={1: (0, 0), 2: (3, 4), 3: (0, 1)},
            adjacency={1: [2, 3], 3: [1]},
            lengths={(1, 3): 9.5},
        )
        assert g.max_edge_length == 9.5
        assert RoadNetwork(coords={1: (0, 0)}, adjacency={}).max_edge_length == 0.0

    def test_unknown_edge_raises(self):
        g = RoadNetwork(coords={1: (0, 0), 2: (1, 0)}, adjacency={1: [2]})
        with pytest.raises(KeyError):
            g.out_no(2, 1)
        with pytest.raises(KeyError):
            g.out_edge(1, 2)

    def test_duplicate_out_edge_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork(coords={1: (0, 0), 2: (1, 0)}, adjacency={1: [2, 2]})

    def test_adjacency_to_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork(coords={1: (0, 0)}, adjacency={1: [99]})

    def test_euclid_lengths_default(self):
        g = RoadNetwork(coords={1: (0, 0), 2: (3, 4)}, adjacency={1: [2]})
        assert g.edge_length(1, 2) == pytest.approx(5.0)

    def test_explicit_lengths_kept(self):
        g = RoadNetwork(
            coords={1: (0, 0), 2: (3, 4)}, adjacency={1: [2]}, lengths={(1, 2): 200.0}
        )
        assert g.edge_length(1, 2) == 200.0


class TestPaths:
    def test_roundtrip_path_encoding(self, net):
        # Take any 5-edge walk and check E-number round trip.
        sv = next(v for v in net.adj if net.adj[v])
        edges = []
        u = sv
        for _ in range(5):
            v = net.adj[u][0]
            edges.append((u, v))
            u = v
        nos = [net.out_no(u, v) for u, v in edges]
        verts, _ = ted_path(net, TedTuple(sv, nos, [1] * len(nos), [], 1.0))
        assert list(zip(verts[:-1], verts[1:])) == edges
        assert all(no >= 1 for no in nos)

    def test_alt_path_first_hop_differs(self, net):
        # Find a vertex with >= 2 out-edges and a reachable target.
        for u in net.adj:
            if len(net.adj[u]) >= 2:
                v0 = net.adj[u][0]
                for w in net.adj.get(v0, []):
                    alt = next(
                        net.alt_paths(u, w, forbidden_first=v0, max_depth=4), None
                    )
                    if alt is not None:
                        assert alt[0] == u and alt[-1] == w
                        assert alt[1] != v0
                        # every hop is a real edge
                        for a, b in zip(alt[:-1], alt[1:]):
                            assert b in net.adj[a]
                        return
        pytest.skip("no alternative path in tiny test network")

    def test_alt_path_none_when_impossible(self):
        g = RoadNetwork(coords={1: (0, 0), 2: (1, 0)}, adjacency={1: [2], 2: [1]})
        assert list(g.alt_paths(1, 2, forbidden_first=2, max_depth=3)) == []


class TestGenerator:
    @pytest.mark.parametrize("name", ["dk", "cd", "hz", "test"])
    def test_profiles_build(self, name):
        g = grid_network(name)
        p = NETWORK_PROFILES[name]
        assert len(g.coords) == p.width * p.height
        assert len(g.lengths) > len(g.coords)  # avg out-degree > 1
        assert g.max_out_degree <= 8

    def test_deterministic(self):
        a, b = grid_network("test"), grid_network("test")
        assert a.adj == b.adj
        assert a.coords == b.coords

    def test_no_dead_ends(self, net):
        assert all(net.adj[u] for u in net.adj)

    def test_avg_out_degree_shape(self):
        # Table 6 reports 2.4–2.8; accept a generous band for the lite nets.
        for name in ("dk", "cd", "hz"):
            d = grid_network(name).avg_out_degree()
            assert 1.8 <= d <= 3.2, (name, d)

    def test_id_bases_disjoint(self):
        dk, cd = grid_network("dk"), grid_network("cd")
        assert set(dk.coords).isdisjoint(set(cd.coords))


class TestRect:
    def test_contains(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains(0, 0) and r.contains(10, 10) and r.contains(5, 5)
        assert not r.contains(-1, 5) and not r.contains(5, 11)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 0, 5)

    def test_segment_crossing(self):
        r = Rect(0, 0, 10, 10)
        assert r.intersects_segment((-5, 5), (15, 5))  # crosses through
        assert r.intersects_segment((5, 5), (20, 20))  # endpoint inside
        assert not r.intersects_segment((-5, -5), (-1, 20))  # left of box
        assert not r.intersects_segment((11, 0), (20, 10))

    def test_segment_touching_corner(self):
        r = Rect(0, 0, 10, 10)
        assert r.intersects_segment((10, 10), (20, 20))

    def test_diagonal_miss(self):
        r = Rect(0, 0, 1, 1)
        # x + y = 2 touches the corner (1,1): counts as intersecting.
        assert r.intersects_segment((2, 0), (0, 2))
        # x + y = 3 clears the box entirely.
        assert not r.intersects_segment((3, 0), (0, 3))


class TestSpatialGrid:
    def test_cell_of_corners(self):
        g = SpatialGrid(Rect(0, 0, 100, 100), 4, 4)
        assert g.cell_of(0, 0) == 0
        assert g.cell_of(99.9, 0) == 3
        assert g.cell_of(0, 99.9) == 12
        assert g.cell_of(99.9, 99.9) == 15
        # clamped outside
        assert g.cell_of(-5, -5) == 0
        assert g.cell_of(500, 500) == 15

    def test_cell_rect_inverse(self):
        g = SpatialGrid(Rect(0, 0, 100, 80), 5, 4)
        for cell in range(g.num_cells):
            cy, cx = divmod(cell, g.nx)
            # the centre of the cell's rectangle lies in the cell
            x = g.bbox.x0 + (cx + 0.5) * g.dx
            y = g.bbox.y0 + (cy + 0.5) * g.dy
            assert g.cell_of(x, y) == cell

    def test_cells_overlapping(self):
        g = SpatialGrid(Rect(0, 0, 100, 100), 4, 4)
        cells = g.cells_overlapping(Rect(10, 10, 40, 40))
        assert set(cells) == {0, 1, 4, 5}
        assert g.cells_overlapping(Rect(0, 0, 100, 100)) == list(range(16))

    def test_num_cells(self):
        assert SpatialGrid(Rect(0, 0, 1, 1), 8, 8).num_cells == 64

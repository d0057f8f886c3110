"""Spatial grid partitioning of the road network (§5.2 StIU spatial index).

The paper partitions the network with n×n grid cells (Table 7: 8²–128²);
each cell is a region ``re``. Query regions RE are axis-aligned rectangles
(unions of cells in the experiments), so the grid also provides
rectangle↔cell mapping and exact segment/rectangle geometry for Lemma 2.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] × [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(f"degenerate rect {self}")

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def intersects_segment(
        self, p: tuple[float, float], q: tuple[float, float]
    ) -> bool:
        """Exact segment–rectangle intersection (Liang–Barsky clipping)."""
        if self.contains(*p) or self.contains(*q):
            return True
        x1, y1 = p
        x2, y2 = q
        dx, dy = x2 - x1, y2 - y1
        t0, t1 = 0.0, 1.0
        for pk, qk in (
            (-dx, x1 - self.x0),
            (dx, self.x1 - x1),
            (-dy, y1 - self.y0),
            (dy, self.y1 - y1),
        ):
            if pk == 0:
                if qk < 0:
                    return False
                continue
            r = qk / pk
            if pk < 0:
                t0 = max(t0, r)
            else:
                t1 = min(t1, r)
            if t0 > t1:
                return False
        return True


class SpatialGrid:
    """n_x × n_y grid over a bounding box; cells are region ids 0..n_x·n_y−1."""

    def __init__(self, bbox: Rect, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        self.bbox = bbox
        self.nx, self.ny = nx, ny
        self.dx = (bbox.x1 - bbox.x0) / nx
        self.dy = (bbox.y1 - bbox.y0) / ny

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    def cell_of(self, x: float, y: float) -> int:
        """Region id of the cell containing (x, y); clamped to the bbox."""
        cx = min(self.nx - 1, max(0, int((x - self.bbox.x0) / self.dx))) if self.dx > 0 else 0
        cy = min(self.ny - 1, max(0, int((y - self.bbox.y0) / self.dy))) if self.dy > 0 else 0
        return cy * self.nx + cx

    def cells_overlapping(self, re: Rect) -> list[int]:
        """All cells intersecting rectangle ``re`` (the index lookup set)."""
        if self.dx <= 0 or self.dy <= 0:
            return list(range(self.num_cells))
        cx0 = max(0, int((re.x0 - self.bbox.x0) / self.dx))
        cx1 = min(self.nx - 1, int((re.x1 - self.bbox.x0) / self.dx))
        cy0 = max(0, int((re.y0 - self.bbox.y0) / self.dy))
        cy1 = min(self.ny - 1, int((re.y1 - self.bbox.y0) / self.dy))
        return [
            cy * self.nx + cx
            for cy in range(cy0, cy1 + 1)
            for cx in range(cx0, cx1 + 1)
        ]

    def cells_near(self, re: Rect, margin: float) -> list[int]:
        """All cells intersecting ``re`` grown by ``margin`` on every side.

        Range queries pass the longest edge length, so an instance whose
        current edge dips into ``re`` without a vertex inside is never
        missed."""
        return self.cells_overlapping(
            Rect(re.x0 - margin, re.y0 - margin, re.x1 + margin, re.y1 + margin)
        )

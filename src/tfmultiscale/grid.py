"""Nested coarse/fine rectangular meshes on the unit square.

The coarse mesh splits [0,1]^2 into ``coarse_n x coarse_n`` square elements;
each coarse element is refined into ``refine x refine`` fine cells.  All
sizes are stored as integer counts so that h * refine = H holds exactly.

Node and cell numbering is lexicographic with x running fastest.  Nodes on
the outer boundary carry no degree of freedom (homogeneous Dirichlet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class OversamplePatch:
    """A coarse element enlarged by ``layers`` rings of coarse neighbours.

    ``elements`` lists the coarse element ids forming the (clipped) rectangle
    [cx0, cx1] x [cy0, cy1] in coarse coordinates.  ``local_dofs`` holds the
    global fine DOF ids strictly interior to the patch (zero trace on the
    patch boundary).
    """

    center: int
    layers: int
    cx0: int
    cx1: int
    cy0: int
    cy1: int
    elements: np.ndarray
    local_dofs: np.ndarray

    def contains_element(self, j: int, coarse_n: int) -> bool:
        cy, cx = divmod(j, coarse_n)
        return self.cx0 <= cx <= self.cx1 and self.cy0 <= cy <= self.cy1


@dataclass(frozen=True)
class GridHierarchy:
    """Uniform coarse/fine mesh pair with DOF maps.

    Attributes
    ----------
    coarse_n : coarse elements per side.
    refine : fine cells per coarse cell per side.
    fine_dof_map : per fine node, the interior DOF index or -1 on the boundary.
    elem_maps : per coarse element, (fine cell ids, fine node ids).
    """

    coarse_n: int
    refine: int
    fine_dof_map: np.ndarray = field(repr=False)
    elem_maps: list = field(repr=False)

    @property
    def H(self) -> float:
        return 1.0 / self.coarse_n

    @property
    def h(self) -> float:
        return 1.0 / (self.coarse_n * self.refine)

    @property
    def n_fine(self) -> int:
        """Fine cells per side."""
        return self.coarse_n * self.refine

    @property
    def n_nodes_side(self) -> int:
        return self.n_fine + 1

    @property
    def n_nodes(self) -> int:
        return self.n_nodes_side ** 2

    @property
    def n_cells(self) -> int:
        return self.n_fine ** 2

    @property
    def n_dofs(self) -> int:
        return (self.n_fine - 1) ** 2

    @property
    def n_coarse_elems(self) -> int:
        return self.coarse_n ** 2

    @property
    def n_coarse_vertices(self) -> int:
        return (self.coarse_n + 1) ** 2

    @cached_property
    def _geometry(self) -> tuple:
        """Node coordinates, cell connectivity and interior node ids, built
        on first use and shared, read-only, by every later caller."""
        s = np.linspace(0.0, 1.0, self.n_nodes_side)
        X, Y = np.meshgrid(s, s, indexing="xy")
        coords = np.column_stack([X.ravel(), Y.ravel()])
        nf = self.n_fine
        nn = self.n_nodes_side
        cx, cy = np.meshgrid(np.arange(nf), np.arange(nf), indexing="xy")
        n0 = cy.ravel() * nn + cx.ravel()
        conn = np.column_stack([n0, n0 + 1, n0 + nn + 1, n0 + nn])
        interior = np.flatnonzero(self.fine_dof_map >= 0)
        for a in (coords, conn, interior):
            a.flags.writeable = False
        return coords, conn, interior

    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) array of fine node coordinates (read-only)."""
        return self._geometry[0]

    def cell_nodes(self) -> np.ndarray:
        """(n_cells, 4) node ids per fine cell, counterclockwise from SW
        (read-only)."""
        return self._geometry[1]

    def interior_nodes(self) -> np.ndarray:
        """Fine node ids carrying a DOF, in DOF order (read-only)."""
        return self._geometry[2]


def build_grids(coarse_n: int, refine: int) -> GridHierarchy:
    """Build the nested hierarchy; rejects degenerate decompositions."""
    if coarse_n < 2:
        raise ValueError(f"coarse_n must be >= 2, got {coarse_n}")
    if refine < 2:
        raise ValueError(f"refine must be >= 2, got {refine}")

    nf = coarse_n * refine
    nn = nf + 1
    ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="xy")
    interior = (ix.ravel() > 0) & (ix.ravel() < nf) & (iy.ravel() > 0) & (iy.ravel() < nf)
    dof_map = np.full(nn * nn, -1, dtype=np.int64)
    dof_map[interior] = np.arange(interior.sum())

    elem_maps = []
    r = refine
    for cy in range(coarse_n):
        for cx in range(coarse_n):
            fx = np.arange(cx * r, (cx + 1) * r)
            fy = np.arange(cy * r, (cy + 1) * r)
            FX, FY = np.meshgrid(fx, fy, indexing="xy")
            cells = (FY * nf + FX).ravel()
            gx = np.arange(cx * r, (cx + 1) * r + 1)
            gy = np.arange(cy * r, (cy + 1) * r + 1)
            GX, GY = np.meshgrid(gx, gy, indexing="xy")
            nodes = (GY * nn + GX).ravel()
            elem_maps.append((cells, nodes))

    return GridHierarchy(coarse_n=coarse_n, refine=refine,
                         fine_dof_map=dof_map, elem_maps=elem_maps)


def element_interior_dofs(grid: GridHierarchy, i: int) -> np.ndarray:
    """Global DOF ids of fine nodes strictly inside coarse element i."""
    cn = grid.coarse_n
    r = grid.refine
    nn = grid.n_nodes_side
    cy, cx = divmod(i, cn)
    gx = np.arange(cx * r + 1, (cx + 1) * r)
    gy = np.arange(cy * r + 1, (cy + 1) * r)
    GX, GY = np.meshgrid(gx, gy, indexing="xy")
    nodes = (GY * nn + GX).ravel()
    dofs = grid.fine_dof_map[nodes]
    assert np.all(dofs >= 0)
    return dofs


def oversample(grid: GridHierarchy, i: int, layers: int) -> OversamplePatch:
    """Oversampled patch around coarse element i (layers=0 is the element)."""
    cn = grid.coarse_n
    if not (0 <= i < grid.n_coarse_elems):
        raise IndexError(f"coarse element index {i} out of range")
    if layers < 0:
        raise ValueError(f"layers must be >= 0, got {layers}")

    cy, cx = divmod(i, cn)
    cx0 = max(cx - layers, 0)
    cx1 = min(cx + layers, cn - 1)
    cy0 = max(cy - layers, 0)
    cy1 = min(cy + layers, cn - 1)
    EX, EY = np.meshgrid(np.arange(cx0, cx1 + 1), np.arange(cy0, cy1 + 1), indexing="xy")
    elements = (EY * cn + EX).ravel()

    r = grid.refine
    nn = grid.n_nodes_side
    gx = np.arange(cx0 * r + 1, (cx1 + 1) * r)
    gy = np.arange(cy0 * r + 1, (cy1 + 1) * r)
    GX, GY = np.meshgrid(gx, gy, indexing="xy")
    nodes = (GY * nn + GX).ravel()
    dofs = grid.fine_dof_map[nodes]
    dofs = dofs[dofs >= 0]

    return OversamplePatch(center=i, layers=layers, cx0=cx0, cx1=cx1,
                           cy0=cy0, cy1=cy1, elements=elements,
                           local_dofs=np.sort(dofs))

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


@dataclass(frozen=True)
class IndexMaps:
    """Index maps of one grid and one oversampling depth, as read-only arrays.

    ``interior[e]`` holds coarse element e's interior DOFs in ascending
    order.  ``boundary[e]`` holds the DOFs of its 4r perimeter nodes in
    lexicographic node order, -1 where the node lies on the outer boundary
    (``boundary_mask`` is False there).  The skeleton is the set of DOFs on
    coarse-element edges, ascending; ``skeleton_pos`` gives each DOF's
    position in it or -1.  Patch i (element i enlarged by ``layers`` rings)
    has DOFs ``patch_dofs[i]`` (ascending, strictly inside the patch), of
    which those on the skeleton sit at positions ``patch_skeleton[i]``;
    ``in_patch[i, e]`` tells whether element e lies in patch i.
    """

    interior: np.ndarray
    boundary: np.ndarray
    boundary_mask: np.ndarray
    skeleton: np.ndarray
    skeleton_pos: np.ndarray
    patch_dofs: tuple
    patch_skeleton: tuple
    in_patch: np.ndarray


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

    @cached_property
    def _element_maps(self) -> tuple:
        """Interior and padded boundary DOFs of every coarse element, and the
        skeleton with each DOF's position in it (see :class:`IndexMaps`)."""
        cn, r, nn = self.coarse_n, self.refine, self.n_nodes_side
        ly, lx = np.divmod(np.arange((r + 1) ** 2), r + 1)
        on_perimeter = (lx % r == 0) | (ly % r == 0)
        cy, cx = np.divmod(np.arange(cn * cn), cn)
        nodes = (cy[:, None] * r + ly) * nn + cx[:, None] * r + lx
        closure = self.fine_dof_map[nodes]
        interior = np.ascontiguousarray(closure[:, ~on_perimeter])
        boundary = np.ascontiguousarray(closure[:, on_perimeter])
        dof_nodes = self.interior_nodes()
        skeleton = np.flatnonzero((dof_nodes % nn % r == 0)
                                  | (dof_nodes // nn % r == 0))
        skeleton_pos = np.full(self.n_dofs, -1)
        skeleton_pos[skeleton] = np.arange(len(skeleton))
        out = (interior, boundary, boundary >= 0, skeleton, skeleton_pos)
        for a in out:
            a.flags.writeable = False
        return out

    def index_maps(self, layers: int) -> IndexMaps:
        """The element, skeleton and patch index maps for ``layers`` rings of
        oversampling, built with numpy on first use and cached per value."""
        if layers < 0:
            raise ValueError(f"layers must be >= 0, got {layers}")
        cache = self.__dict__.setdefault("_index_maps", {})
        if layers not in cache:
            cache[layers] = self._build_index_maps(layers)
        return cache[layers]

    def _build_index_maps(self, layers: int) -> IndexMaps:
        cn, r = self.coarse_n, self.refine
        interior, boundary, mask, skeleton, skeleton_pos = self._element_maps
        # Interior DOFs form an (n_fine - 1)^2 grid, x fastest; patch i's
        # DOFs are a rectangle of it, listed row by row.
        dof_grid = np.arange(self.n_dofs).reshape(self.n_fine - 1, -1)
        c = np.arange(cn)
        lo = np.maximum(c - layers, 0)
        hi = np.minimum(c + layers, cn - 1)
        patch_dofs, patch_skeleton = [], []
        for i in range(cn * cn):
            cy, cx = divmod(i, cn)
            dofs = dof_grid[lo[cy] * r:(hi[cy] + 1) * r - 1,
                            lo[cx] * r:(hi[cx] + 1) * r - 1].ravel()
            pos = skeleton_pos[dofs]
            pos = pos[pos >= 0]
            for a in (dofs, pos):
                a.flags.writeable = False
            patch_dofs.append(dofs)
            patch_skeleton.append(pos)
        near = np.abs(c[:, None] - c[None, :]) <= layers
        in_patch = (near[:, None, :, None] & near[None, :, None, :]).reshape(
            cn * cn, cn * cn)
        in_patch.flags.writeable = False
        return IndexMaps(interior=interior, boundary=boundary,
                         boundary_mask=mask, skeleton=skeleton,
                         skeleton_pos=skeleton_pos,
                         patch_dofs=tuple(patch_dofs),
                         patch_skeleton=tuple(patch_skeleton),
                         in_patch=in_patch)


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
    """Global DOF ids of fine nodes strictly inside coarse element i
    (ascending, read-only)."""
    return grid._element_maps[0][i]


def oversample(grid: GridHierarchy, i: int, layers: int) -> OversamplePatch:
    """Oversampled patch around coarse element i (layers=0 is the element)."""
    cn = grid.coarse_n
    if not (0 <= i < grid.n_coarse_elems):
        raise IndexError(f"coarse element index {i} out of range")
    maps = grid.index_maps(layers)
    cy, cx = divmod(i, cn)
    return OversamplePatch(center=i, layers=layers,
                           cx0=max(cx - layers, 0), cx1=min(cx + layers, cn - 1),
                           cy0=max(cy - layers, 0), cy1=min(cy + layers, cn - 1),
                           elements=np.flatnonzero(maps.in_patch[i]),
                           local_dofs=maps.patch_dofs[i])

"""Nested coarse/fine rectangular meshes on the unit square.

The coarse mesh splits [0,1]^2 into ``coarse_n x coarse_n`` square elements;
each coarse element is refined into ``refine x refine`` fine cells.  The
hierarchy is those two integer counts, so that h * refine = H holds exactly;
every map (node coordinates, cell connectivity, DOF numbering, element cells
and nodes, element, skeleton and patch index sets) is a read-only numpy table
derived from them on first use and cached.

Node and cell numbering is lexicographic with x running fastest.  Nodes on
the outer boundary carry no degree of freedom (homogeneous Dirichlet).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np


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
    """Uniform coarse/fine mesh pair: ``coarse_n`` coarse elements per side,
    each refined into ``refine`` fine cells per side.  Both counts must be
    integers >= 2."""

    coarse_n: int
    refine: int

    def __post_init__(self):
        for name in ("coarse_n", "refine"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {value!r}")

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
        interior = (np.arange(1, nf)[:, None] * nn + np.arange(1, nf)).ravel()
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
        """Fine cells and nodes of every coarse element, its interior and
        padded boundary DOFs, and the skeleton with each DOF's position in it
        (see :class:`IndexMaps`)."""
        cn, r, nn = self.coarse_n, self.refine, self.n_nodes_side
        cy, cx = np.divmod(np.arange(cn * cn), cn)
        fy, fx = np.divmod(np.arange(r * r), r)
        cells = (cy[:, None] * r + fy) * self.n_fine + cx[:, None] * r + fx
        ly, lx = np.divmod(np.arange((r + 1) ** 2), r + 1)
        on_perimeter = (lx % r == 0) | (ly % r == 0)
        nodes = (cy[:, None] * r + ly) * nn + cx[:, None] * r + lx
        dof_nodes = self.interior_nodes()
        dof_map = np.full(self.n_nodes, -1)
        dof_map[dof_nodes] = np.arange(self.n_dofs)
        closure = dof_map[nodes]
        interior = np.ascontiguousarray(closure[:, ~on_perimeter])
        boundary = np.ascontiguousarray(closure[:, on_perimeter])
        skeleton = np.flatnonzero((dof_nodes % nn % r == 0)
                                  | (dof_nodes // nn % r == 0))
        skeleton_pos = np.full(self.n_dofs, -1)
        skeleton_pos[skeleton] = np.arange(len(skeleton))
        out = (cells, nodes, interior, boundary, boundary >= 0, skeleton,
               skeleton_pos)
        for a in out:
            a.flags.writeable = False
        return out

    def element_cells(self) -> np.ndarray:
        """Per coarse element, its ``refine**2`` fine cell ids, x fastest, as
        a read-only (coarse_n**2, refine**2) table."""
        return self._element_maps[0]

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
        interior, boundary, mask, skeleton, skeleton_pos = self._element_maps[2:]
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
    return GridHierarchy(coarse_n=coarse_n, refine=refine)

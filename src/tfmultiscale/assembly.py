"""Q1 bilinear finite element assembly on the fine grid.

Provides the mass matrix M, stiffness A(kappa), the weighted mass S built
from the MsFEM partition-of-unity gradients, and load vectors.  kappa is
piecewise constant per fine cell; all element integrals are exact.

The partition of unity chi, kept as per-element tables (all kappa_tilde
reads), and kappa_tilde are computed for all coarse elements at once, and
must stay bit-equal to the per-element loops: at contrast 1e6 a relative
1e-15 change in either moves the stability report by about 1e-6 (ROADMAP
item 1), beyond the benchmark's 1e-9 references.  A global matrix is one
:func:`_scatter`, whose entry order fixes the order in which duplicates are
summed, cell order, as long as no row holds more than 16 COO entries (scipy
1.17 sorts such a row stably, a longer one not); an assembled row holds at
most 16 (4 cells x 4 nodes).  Every coarse element's dense block is summed
from the element's own cells in that order (:func:`element_blocks`), so it
is bit-equal to the assembled matrix's block without a gather from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridHierarchy
from .linalg import SolveError, _check_backward_error

# Reference element matrices on an h x h square, nodes counterclockwise
# from the SW corner.  Mass scales with h^2; stiffness is h-independent.
_MASS_REF = np.array([[4, 2, 1, 2],
                      [2, 4, 2, 1],
                      [1, 2, 4, 2],
                      [2, 1, 2, 4]], dtype=float) / 36.0
_STIFF_REF = np.array([[4, -1, -2, -1],
                       [-1, 4, -1, -2],
                       [-2, -1, 4, -1],
                       [-1, -2, -1, 4]], dtype=float) / 6.0


@dataclass(frozen=True)
class PermeabilityField:
    """Piecewise-constant positive kappa on fine cells, cell-id order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("field values must be a flat per-cell array")
        if not np.all(np.isfinite(v)) or v.min() <= 0.0:
            raise ValueError("permeability values must be positive and finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class WeightedField:
    """Per-fine-cell values of kappa_tilde (nonnegative)."""

    values: np.ndarray


@dataclass
class PartitionOfUnity:
    """MsFEM partition of unity as per-element tables: ``values[e, j, c]`` is
    chi of element e's corner c (SW, SE, NE, NW) at its local node j, x
    fastest.  Adjacent elements hold identical values on shared nodes."""

    grid: GridHierarchy
    values: np.ndarray  # (n elements, (refine + 1)**2, 4)


def element_mass(h: float) -> np.ndarray:
    """Exact 4x4 mass matrix of Q1 shape functions on an h x h cell."""
    if h <= 0:
        raise ValueError("h must be positive")
    return (h * h) * _MASS_REF


def _scatter(values, rows, cols, shape) -> sp.coo_matrix:
    """The sparse matrix with entries ``values`` at (``rows``, ``cols``), the
    three broadcast together and listed in C order.  On conversion to CSR,
    duplicates are summed in that order only in a row of at most 16 entries,
    which scipy (1.17) sorts by insertion sort; a longer row is sorted by an
    unstable sort, so its sums are in no fixed order.  An entry whose row or
    column is negative (-1, a node without a DOF) is dropped, by a mask made
    only when there is such an entry."""
    values, rows, cols = np.broadcast_arrays(values, rows, cols)
    if rows.min(initial=0) < 0 or cols.min(initial=0) < 0:
        keep = (rows >= 0) & (cols >= 0)
        values, rows, cols = values[keep], rows[keep], cols[keep]
    return sp.coo_matrix((values.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


def element_blocks(grid: GridHierarchy, cell_weights: np.ndarray,
                   elem_ref: np.ndarray, cols) -> np.ndarray:
    """Every coarse element's dense block of sum_c w_c * elem_ref over its own
    fine cells, stacked: the rows of its interior nodes and the columns
    ``cols`` of its closure, positions in the list of its interior nodes then
    its perimeter nodes (the order of the grid's element maps), one list for
    every element or one per element, distinct, a column of -1 reading zero.
    The cells are added in cell order, the order in which :func:`assemble`'s
    COO sums them, so every block is bit-equal to the assembled matrix's."""
    r = grid.refine
    (closure, cells), ni = _closure(r), (r - 1) ** 2
    cols = np.atleast_2d(cols)
    ne, nc = grid.coarse_n ** 2, cols.shape[1]
    # Output column of each closure position, -1 where not asked for (a
    # column of -1 writes the spare last position).  An entry outside the
    # interior rows and the asked columns goes to its element's spare place.
    out_col = np.full((len(cols), len(closure) + 1), -1)
    out_col[np.arange(len(cols))[:, None], cols] = np.arange(nc)
    row, col = cells[:, :, None], out_col[:, cells[:, None, :]]
    at = np.where((row < ni) & (col >= 0), row * nc + col, ni * nc)
    flat = at + (ni * nc + 1) * np.arange(ne)[:, None, None, None]
    values = cell_weights[grid.element_cells()][:, :, None, None] * elem_ref
    return np.bincount(flat.ravel(), weights=values.ravel(), minlength=ne * (ni * nc + 1)
                       ).reshape(ne, -1)[:, :-1].reshape(ne, ni, nc)


def _check_cells(grid: GridHierarchy, values) -> None:
    if len(values) != grid.n_cells:
        raise ValueError(f"field has {len(values)} cells, grid has {grid.n_cells}")


def assemble(grid: GridHierarchy, field, weight: str) -> sp.csr_matrix:
    """Assemble a global matrix on interior DOFs.

    weight is one of 'mass' (field ignored), 'stiffness' (PermeabilityField)
    or 'weighted_mass' (WeightedField, i.e. the s-bilinear form).  Every
    cell's element matrix is scattered straight onto the DOFs, an entry at a
    node without a DOF dropped.  The mass matrix is assembled once per grid,
    its arrays read-only.  The pipeline reads the weighted mass only by
    element blocks (:func:`element_blocks`); the global one is their oracle.
    """
    if weight not in ("mass", "stiffness", "weighted_mass"):
        raise ValueError(f"unknown weight kind {weight!r}")
    if weight == "mass" and "_mass" in grid.__dict__:
        return grid.__dict__["_mass"]
    w = np.ones(grid.n_cells) if weight == "mass" else np.asarray(field.values, dtype=float)
    ref = _STIFF_REF if weight == "stiffness" else element_mass(grid.h)
    _check_cells(grid, w)
    dof = np.full(grid.n_nodes, -1)
    dof[grid.interior_nodes()] = np.arange(grid.n_dofs)
    conn = dof[grid.cell_nodes()]
    out = _scatter(w[:, None, None] * ref, conn[:, :, None], conn[:, None, :],
                   (grid.n_dofs, grid.n_dofs)).tocsr()
    if weight == "mass":
        for a in (out.data, out.indices, out.indptr):
            a.flags.writeable = False
        grid.__dict__["_mass"] = out
    return out


@cache
def _closure(r: int) -> tuple:
    """One element's local nodes (x fastest) in closure order, its interior
    nodes then its perimeter nodes, each ascending, and the closure
    positions of its cells' nodes; read-only, built once per ``refine``."""
    ly, lx = np.divmod(np.arange((r + 1) ** 2), r + 1)
    closure = np.argsort((lx % r == 0) | (ly % r == 0), kind="stable")
    cells = np.argsort(closure)[_local_cells(r)]
    for a in (closure, cells):
        a.flags.writeable = False
    return closure, cells


def _local_cells(r: int) -> np.ndarray:
    """(r * r, 4) local nodes (x fastest) of one element's cells, ccw from SW."""
    cY, cX = np.divmod(np.arange(r * r), r)
    c0 = cY * (r + 1) + cX
    return np.column_stack([c0, c0 + 1, c0 + r + 2, c0 + r + 1])


def msfem_partition(grid: GridHierarchy, field: PermeabilityField) -> PartitionOfUnity:
    """kappa-harmonic partition of unity chi_i, one per coarse vertex.

    On each coarse element, chi_i solves the local Dirichlet problem with
    bilinear boundary data (1 at vertex i, 0 at the others, linear on edges).
    The local stiffnesses are the elements' closure blocks
    (:func:`element_blocks`); the boundary-data product sums each row over
    its perimeter columns in ascending order, as a sparse product does.  The
    interior blocks share one pattern, so one CSC takes each element's values
    in turn to be factored by SuperLU (COLAMD) and solved, and the backward
    errors are checked in one pass, a failure naming the element.
    """
    _check_cells(grid, field.values)
    r = grid.refine
    (closure, _), ni = _closure(r), (r - 1) ** 2
    ly, lx = np.divmod(closure[ni:], r + 1)
    lx, ly = lx / r, ly / r
    # Boundary data: the corner hats (SW, SE, NE, NW) at the perimeter nodes.
    G = np.column_stack([(1 - lx) * (1 - ly), lx * (1 - ly), lx * ly, (1 - lx) * ly])

    blocks = element_blocks(grid, field.values, _STIFF_REF, np.arange(len(closure)))
    ne, A_ii = len(blocks), blocks[:, :, :ni]
    rhs = np.zeros((ne, ni, 4))
    for j, g in enumerate(G):
        rhs -= blocks[:, :, ni + j, None] * g
    # Interior nodes are coupled where they share a cell.
    iy, ix = np.divmod(np.arange(ni), r - 1)
    K = sp.csc_matrix((np.abs(ix[:, None] - ix) <= 1) & (np.abs(iy[:, None] - iy) <= 1),
                      dtype=float)
    data = A_ii[:, K.indices, np.repeat(np.arange(ni), np.diff(K.indptr))].copy()
    sol = np.empty_like(rhs)
    for e in range(ne):
        K.data = data[e]
        sol[e] = spla.splu(K).solve(rhs[e])
    try:
        _check_backward_error(A_ii @ sol, np.abs(A_ii).sum(axis=1).max(axis=1),
                              sol, rhs)
    except SolveError as exc:
        raise SolveError(f"on element {exc.block}: {exc.reason}") from exc
    values = np.empty((ne, len(closure), 4))
    values[:, closure[:ni]] = sol
    values[:, closure[ni:]] = G
    return PartitionOfUnity(grid=grid, values=values)


def kappa_tilde(field: PermeabilityField, pou: PartitionOfUnity) -> WeightedField:
    """kappa * sum_i |grad chi_i|^2, gradients at fine-cell midpoints.  On a
    cell only the chi_i of its element's corners are nonzero; their terms
    are summed in ascending vertex order (corners 0, 1, 3, 2), as over all i."""
    grid = pou.grid
    _check_cells(grid, field.values)
    h = grid.h
    u = pou.values[:, _local_cells(grid.refine)]      # (ne, r * r, 4 nodes, 4 corners)
    gx = ((u[:, :, 1] - u[:, :, 0]) + (u[:, :, 2] - u[:, :, 3])) / (2 * h)
    gy = ((u[:, :, 3] - u[:, :, 0]) + (u[:, :, 2] - u[:, :, 1])) / (2 * h)
    t = gx * gx + gy * gy
    total = np.empty(grid.n_cells)
    total[grid.element_cells()] = t[..., 0] + t[..., 1] + t[..., 3] + t[..., 2]
    return WeightedField(values=field.values * total)


def load_vector(grid: GridHierarchy, f, t: float) -> np.ndarray:
    """Load vector ``(f(., t), phi_i)`` on the interior DOFs.

    ``f(x, y, t)`` is evaluated at the fine nodes (a scalar is broadcast) and
    interpolated bilinearly on each cell, so each cell contributes its exact
    element mass matrix times its four nodal values.  Contributions are
    summed per node in cell order.
    """
    xy = grid.node_coords()
    fn = np.asarray(f(xy[:, 0], xy[:, 1], t), dtype=float)
    if fn.shape != (grid.n_nodes,):
        fn = np.broadcast_to(fn, (grid.n_nodes,))
    conn = grid.cell_nodes()
    contrib = fn[conn] @ element_mass(grid.h).T          # (n_cells, 4)
    out = np.bincount(conn.ravel(), weights=contrib.ravel(),
                      minlength=grid.n_nodes)
    return out[grid.interior_nodes()]


def write_raster(path, nx: int, ny: int, values: np.ndarray) -> None:
    """Plain-text raster: 'nx ny' header then nx*ny values row-major."""
    values = np.asarray(values, dtype=float).ravel()
    if len(values) != nx * ny:
        raise ValueError(f"expected {nx * ny} values, got {len(values)}")
    np.savetxt(path, values.reshape(ny, nx), fmt="%.17g", header=f"{nx} {ny}",
               comments="")


def read_raster(path):
    """Read a raster file; returns (nx, ny, flat values)."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: expected header 'nx ny'")
        try:
            nx, ny = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}:1: malformed header {header!r}") from exc
        vals = []
        for ln, line in enumerate(fh, start=2):
            if line.strip() == "":
                continue
            try:
                vals.extend(float(tok) for tok in line.split())
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: malformed value") from exc
    vals = np.array(vals)
    if len(vals) != nx * ny:
        raise ValueError(f"{path}: expected {nx * ny} values, found {len(vals)}")
    return nx, ny, vals

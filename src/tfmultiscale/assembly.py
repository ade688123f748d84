"""Q1 bilinear finite element assembly on the fine grid.

Provides the mass matrix M, stiffness A(kappa), the weighted mass S built
from the MsFEM partition-of-unity gradients, and load vectors.  kappa is
piecewise constant per fine cell; all element integrals are exact.

The partition of unity chi, kept as per-element tables (all kappa_tilde
reads), and kappa_tilde are computed for all coarse elements at once, and
must stay bit-equal to the per-element loops: at contrast 1e6 a relative
1e-15 change in either moves the stability report by about 1e-6 (ROADMAP
item 1), beyond the benchmark's 1e-9 references.  Every sparse matrix built
from element tables is one :func:`_scatter`, whose entry order fixes the
order in which duplicates are summed.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    three broadcast together and listed in C order, so that duplicates are
    summed in that order on conversion.  An entry whose row or column is
    negative (-1, the padding of :func:`spaces._blocks`) is dropped, by a
    mask made only when there is such an entry."""
    values, rows, cols = np.broadcast_arrays(values, rows, cols)
    if rows.min(initial=0) < 0 or cols.min(initial=0) < 0:
        keep = (rows >= 0) & (cols >= 0)
        values, rows, cols = values[keep], rows[keep], cols[keep]
    return sp.coo_matrix((values.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


def _assemble_nodes(grid: GridHierarchy, cell_weights: np.ndarray,
                    elem_ref: np.ndarray) -> sp.csr_matrix:
    """Assemble sum_c w_c * elem_ref over all fine cells, on all nodes."""
    conn = grid.cell_nodes()
    return _scatter(cell_weights[:, None, None] * elem_ref, conn[:, :, None],
                    conn[:, None, :], (grid.n_nodes, grid.n_nodes)).tocsr()


def _check_cells(grid: GridHierarchy, values) -> None:
    if len(values) != grid.n_cells:
        raise ValueError(f"field has {len(values)} cells, grid has {grid.n_cells}")


def assemble(grid: GridHierarchy, field, weight: str) -> sp.csr_matrix:
    """Assemble a global matrix on interior DOFs.

    weight is one of 'mass' (field ignored), 'stiffness' (PermeabilityField)
    or 'weighted_mass' (WeightedField, i.e. the s-bilinear form).
    """
    h = grid.h
    if weight == "mass":
        w = np.ones(grid.n_cells)
        ref = element_mass(h)
    elif weight == "stiffness":
        w = np.asarray(field.values, dtype=float)
        ref = _STIFF_REF
    elif weight == "weighted_mass":
        w = np.asarray(field.values, dtype=float)
        ref = element_mass(h)
    else:
        raise ValueError(f"unknown weight kind {weight!r}")
    _check_cells(grid, w)
    K = _assemble_nodes(grid, w, ref)
    idx = grid.interior_nodes()
    return K[idx][:, idx].tocsr()


def _local_cells(r: int) -> np.ndarray:
    """(r * r, 4) local nodes (x fastest) of one element's cells, ccw from SW."""
    cY, cX = np.divmod(np.arange(r * r), r)
    c0 = cY * (r + 1) + cX
    return np.column_stack([c0, c0 + 1, c0 + r + 2, c0 + r + 1])


def msfem_partition(grid: GridHierarchy, field: PermeabilityField) -> PartitionOfUnity:
    """kappa-harmonic partition of unity chi_i, one per coarse vertex.

    On each coarse element, chi_i solves the local Dirichlet problem with
    bilinear boundary data (1 at vertex i, 0 at the others, linear on edges).
    The local stiffnesses are one block-diagonal COO, elements in order and
    each one's entries in single-element order, so that duplicate entries
    are summed in the order of one element at a time; its blocks and the
    boundary-data product are taken once.  Each interior block is factored by SuperLU (COLAMD) and
    solved on its own, and the backward errors are checked in one pass, a
    failure naming the element.
    """
    _check_cells(grid, field.values)
    r = grid.refine
    n = (r + 1) ** 2                    # local nodes of one element, x fastest
    ly, lx = np.divmod(np.arange(n), r + 1)
    lx, ly = lx / r, ly / r
    on_bdy = (lx == 0) | (lx == 1) | (ly == 0) | (ly == 1)
    bdy = np.flatnonzero(on_bdy)
    inner = np.flatnonzero(~on_bdy)
    ni = len(inner)
    # Bilinear corner hats evaluated at local nodes; corner order SW,SE,NE,NW.
    hats = np.column_stack([(1 - lx) * (1 - ly), lx * (1 - ly), lx * ly, (1 - lx) * ly])

    elem_cells = grid.element_cells()
    ne = len(elem_cells)
    off = n * np.arange(ne)[:, None]
    nodes = _local_cells(r) + off[:, :, None]         # (ne, r * r, 4)
    A = _scatter(field.values[elem_cells][:, :, None, None] * _STIFF_REF,
                 nodes[..., None], nodes[..., None, :], (ne * n, ne * n)).tocsc()
    A_in = A[(inner + off).ravel()]
    A_ii = A_in[:, (inner + off).ravel()].tocsc()
    G = hats[bdy]                                     # boundary data, 4 corners
    rhs = -A_in[:, (bdy + off).ravel()] @ np.tile(G, (ne, 1))
    sol = np.empty_like(rhs)
    nnz = A_ii.nnz // ne                # all element blocks share one pattern
    for e, data in enumerate(A_ii.data.reshape(ne, nnz)):
        K = sp.csc_matrix((data, A_ii.indices[:nnz], A_ii.indptr[:ni + 1]), shape=(ni, ni))
        sol[e * ni:(e + 1) * ni] = spla.splu(K).solve(rhs[e * ni:(e + 1) * ni])
    norms = np.asarray(abs(A_ii).sum(axis=0)).reshape(ne, ni).max(axis=1)
    try:
        _check_backward_error((A_ii @ sol).reshape(ne, ni, 4), norms,
                              sol.reshape(ne, ni, 4), rhs.reshape(ne, ni, 4))
    except SolveError as exc:
        raise SolveError(f"on element {exc.block}: {exc.reason}") from exc
    values = np.empty((ne, n, 4))
    values[:, bdy] = G
    values[:, inner] = sol.reshape(ne, ni, 4)
    return PartitionOfUnity(grid=grid, values=values)


def kappa_tilde(field: PermeabilityField, pou: PartitionOfUnity) -> WeightedField:
    """kappa * sum_i |grad chi_i|^2, gradients at fine-cell midpoints.  On a
    cell only the chi_i of its element's corners are nonzero; their terms
    are summed in ascending vertex order (corners 0, 1, 3, 2), as over all i."""
    grid = pou.grid
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

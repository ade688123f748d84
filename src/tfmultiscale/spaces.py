"""Construction of the two coarse spaces.

V_{H,1} (the constraint-energy-minimizing space) comes from per-element
auxiliary spectral problems (stiffness vs kappa_tilde-weighted mass) and
oversampled, s-constrained energy minimizations.  V_{H,2} lives in the
kernel of the projection Pi and is built from L2-normalized eigenfunctions
of the constrained local problem, localized by doubly-constrained
minimizations.

All vectors are expressed on interior fine DOFs; every basis column is
supported inside its oversampling patch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import assembly
from .grid import GridHierarchy, element_interior_dofs, oversample
from .linalg import SolveError, _sparse_lu

DEFAULT_LAYERS = 2
DEFAULT_NBASIS = 3


@dataclass
class AuxSpace:
    """Per-element auxiliary eigenpairs, s_i-orthonormal within each element.

    ``Psi`` stacks all eigenvectors as sparse columns ordered by
    (element, local index); ``S`` is the global weighted mass realizing the
    s-bilinear form on interior DOFs.
    """

    grid: GridHierarchy
    counts: list
    values: list          # per element, ascending eigenvalues
    Psi: sp.csc_matrix    # (n_dofs, total)
    S: sp.csr_matrix
    col_elem: np.ndarray  # element id per column
    col_index: np.ndarray

    @property
    def total(self) -> int:
        return self.Psi.shape[1]

    def columns_in(self, elements) -> np.ndarray:
        mask = np.isin(self.col_elem, np.asarray(list(elements)))
        return np.flatnonzero(mask)


@dataclass
class AuxSpace2:
    """Constrained (Pi-kernel) local eigenpairs, L2-orthonormal per element."""

    grid: GridHierarchy
    counts: list
    values: list
    Xi: sp.csc_matrix
    M: sp.csr_matrix
    col_elem: np.ndarray
    col_index: np.ndarray

    @property
    def total(self) -> int:
        return self.Xi.shape[1]

    def columns_in(self, elements) -> np.ndarray:
        mask = np.isin(self.col_elem, np.asarray(list(elements)))
        return np.flatnonzero(mask)


@dataclass
class ReducedBasis:
    """Fine-DOF x n coefficient matrix with per-column (element, j, tag)."""

    R: np.ndarray
    col_elem: np.ndarray
    col_index: np.ndarray
    tags: np.ndarray

    @property
    def n(self) -> int:
        return self.R.shape[1]


def combine(first: ReducedBasis, second: ReducedBasis) -> ReducedBasis:
    return ReducedBasis(
        R=np.hstack([first.R, second.R]),
        col_elem=np.concatenate([first.col_elem, second.col_elem]),
        col_index=np.concatenate([first.col_index, second.col_index]),
        tags=np.concatenate([first.tags, second.tags]),
    )


def aux_spectral(grid: GridHierarchy, field_: assembly.PermeabilityField,
                 kt: assembly.WeightedField, L: int = DEFAULT_NBASIS) -> AuxSpace:
    """L smallest eigenpairs per element of local stiffness vs s_i."""
    A = assembly.assemble(grid, field_, "stiffness")
    S = assembly.assemble(grid, kt, "weighted_mass")
    counts, values = [], []
    cols, col_elem, col_index = [], [], []
    n = grid.n_dofs
    for i in range(grid.n_coarse_elems):
        dofs = element_interior_dofs(grid, i)
        Aloc = A[dofs][:, dofs].toarray()
        Sloc = S[dofs][:, dofs].toarray()
        try:
            sla.cholesky(Sloc)
        except sla.LinAlgError as exc:
            raise SolveError(f"degenerate s-form on coarse element {i}") from exc
        vals, vecs = sla.eigh(Aloc, Sloc, subset_by_index=(0, L - 1))
        counts.append(L)
        values.append(vals)
        for j in range(L):
            v = np.zeros(n)
            v[dofs] = vecs[:, j]
            cols.append(sp.csc_matrix(v[:, None]))
            col_elem.append(i)
            col_index.append(j)
    Psi = sp.hstack(cols, format="csc")
    return AuxSpace(grid=grid, counts=counts, values=values, Psi=Psi, S=S,
                    col_elem=np.array(col_elem), col_index=np.array(col_index))


def project_pi(aux: AuxSpace, v: np.ndarray) -> np.ndarray:
    """Element-wise s-orthogonal projection onto the auxiliary space."""
    coef = aux.Psi.T @ (aux.S @ v)
    return aux.Psi @ coef


def cem_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
              aux: AuxSpace, layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Localized constraint-energy minimizers on oversampled patches."""
    A = assembly.assemble(grid, field_, "stiffness")
    SPsi = (aux.S @ aux.Psi).tocsc()
    n = grid.n_dofs
    cols_out, col_elem, col_index = [], [], []
    for i in range(grid.n_coarse_elems):
        patch = oversample(grid, i, layers)
        dofs = patch.local_dofs
        acols = aux.columns_in(patch.elements)
        C = SPsi[dofs][:, acols].T.tocsr()
        Ap = A[dofs][:, dofs]
        own = np.flatnonzero(aux.col_elem[acols] == i)
        # s-moments of the targets against all patch aux functions.
        G = (aux.Psi[:, acols].T @ SPsi[:, acols[own]]).toarray()
        try:
            sols = _kkt_multi(Ap, C, G)
        except SolveError as exc:
            raise SolveError(f"CEM basis solve failed on element {i}: {exc}") from exc
        for jj, j in enumerate(aux.col_index[acols[own]]):
            v = np.zeros(n)
            v[dofs] = sols[:, jj]
            cols_out.append(v)
            col_elem.append(i)
            col_index.append(int(j))
    R = np.column_stack(cols_out)
    return ReducedBasis(R=R, col_elem=np.array(col_elem),
                        col_index=np.array(col_index),
                        tags=np.array(["cem"] * len(col_elem)))


def _kkt_multi(Ap, C, G, tol: float = 1e-9):
    """Solve one patch KKT system for several right-hand moment vectors.

    Constraint rows are equilibrated to unit norm (mass-type rows carry h^2
    factors that otherwise skew the factorization).  The saddle matrix is
    factored once by :func:`linalg._sparse_lu`; all columns of G are solved
    together as one block, with one block iterative refinement step.  Each
    column's constraint and stationarity residuals are then verified, and
    the first failing column is reported.
    """
    m, nd = C.shape
    row_norms = np.sqrt(np.asarray(C.multiply(C).sum(axis=1)).ravel())
    if np.any(row_norms <= 0):
        bad = int(np.flatnonzero(row_norms <= 0)[0])
        raise SolveError(f"zero constraint row {bad}")
    D = sp.diags(1.0 / row_norms)
    Cs = (D @ C).tocsr()
    Gs = G / row_norms[:, None]
    K = sp.bmat([[Ap, Cs.T], [Cs, None]], format="csc")
    lu = _sparse_lu(K)
    rhs = np.vstack([np.zeros((nd, G.shape[1])), Gs])
    sol = lu.solve(rhs)
    sol += lu.solve(rhs - K @ sol)
    X = sol[:nd]
    r = np.linalg.norm(Cs @ X - Gs, axis=0)
    r2 = np.linalg.norm(Ap @ X + Cs.T @ sol[nd:], axis=0)
    scale = np.maximum(np.linalg.norm(Gs, axis=0), 1.0)
    stat_scale = np.maximum(scale, np.abs(Ap.diagonal()).max())
    # Tested as "within tolerance" so that a NaN residual fails too.
    ok = (r <= tol * scale) & (r2 <= tol * stat_scale)
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        raise SolveError(f"column {j}: constraint residual {r[j]:.3e}, "
                         f"stationarity residual {r2[j]:.3e}, above {tol:.1e}")
    return X


def v2_aux_spectral(grid: GridHierarchy, field_: assembly.PermeabilityField,
                    aux1: AuxSpace, J: int = DEFAULT_NBASIS) -> AuxSpace2:
    """J smallest local eigenpairs restricted to the Pi-kernel.

    The constraint (s_i-orthogonality to the element's auxiliary functions)
    is realized by an explicit null-space basis Z, and the projected problem
    Z^T A Z w = gamma Z^T M Z w is solved densely.
    """
    A = assembly.assemble(grid, field_, "stiffness")
    M = assembly.assemble(grid, None, "mass")
    counts, values = [], []
    cols, col_elem, col_index = [], [], []
    n = grid.n_dofs
    for i in range(grid.n_coarse_elems):
        dofs = element_interior_dofs(grid, i)
        own = np.flatnonzero(aux1.col_elem == i)
        Psi_loc = aux1.Psi[dofs][:, own].toarray()
        Sloc = aux1.S[dofs][:, dofs].toarray()
        Cloc = Psi_loc.T @ Sloc
        Z = sla.null_space(Cloc)
        if Z.shape[1] < J:
            raise SolveError(
                f"element {i}: requested {J} constrained eigenpairs, "
                f"space has dimension {Z.shape[1]}")
        Aloc = A[dofs][:, dofs].toarray()
        Mloc = M[dofs][:, dofs].toarray()
        vals, W = sla.eigh(Z.T @ Aloc @ Z, Z.T @ Mloc @ Z,
                           subset_by_index=(0, J - 1))
        vecs = Z @ W
        counts.append(J)
        values.append(vals)
        for j in range(J):
            v = np.zeros(n)
            v[dofs] = vecs[:, j]
            cols.append(sp.csc_matrix(v[:, None]))
            col_elem.append(i)
            col_index.append(j)
    Xi = sp.hstack(cols, format="csc")
    return AuxSpace2(grid=grid, counts=counts, values=values, Xi=Xi, M=M,
                     col_elem=np.array(col_elem), col_index=np.array(col_index))


def v2_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
             aux1: AuxSpace, aux2: AuxSpace2,
             layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Doubly-constrained localized basis of the second (Pi-kernel) space.

    Each column minimizes energy on its patch subject to vanishing s-moments
    against all patch aux1 functions and prescribed L2 moments against the
    patch aux2 functions.
    """
    A = assembly.assemble(grid, field_, "stiffness")
    SPsi = (aux1.S @ aux1.Psi).tocsc()
    MXi = (aux2.M @ aux2.Xi).tocsc()
    n = grid.n_dofs
    cols_out, col_elem, col_index = [], [], []
    for i in range(grid.n_coarse_elems):
        patch = oversample(grid, i, layers)
        dofs = patch.local_dofs
        a1 = aux1.columns_in(patch.elements)
        a2 = aux2.columns_in(patch.elements)
        C1 = SPsi[dofs][:, a1].T
        C2 = MXi[dofs][:, a2].T
        C = sp.vstack([C1, C2]).tocsr()
        Ap = A[dofs][:, dofs]
        own = np.flatnonzero(aux2.col_elem[a2] == i)
        G2 = (aux2.Xi[:, a2].T @ MXi[:, a2[own]]).toarray()
        G = np.vstack([np.zeros((C1.shape[0], len(own))), G2])
        try:
            sols = _kkt_multi(Ap, C, G)
        except SolveError as exc:
            raise SolveError(f"V2 basis solve failed on element {i}: {exc}") from exc
        for jj, j in enumerate(aux2.col_index[a2[own]]):
            v = np.zeros(n)
            v[dofs] = sols[:, jj]
            cols_out.append(v)
            col_elem.append(i)
            col_index.append(int(j))
    R = np.column_stack(cols_out)
    return ReducedBasis(R=R, col_elem=np.array(col_elem),
                        col_index=np.array(col_index),
                        tags=np.array(["v2"] * len(col_elem)))


def field_checksum(field_: assembly.PermeabilityField) -> str:
    return hashlib.sha256(np.ascontiguousarray(field_.values).tobytes()).hexdigest()


BASIS_FORMAT = 2


def save_basis(path, basis: ReducedBasis, grid: GridHierarchy,
               field_: assembly.PermeabilityField, *, L: int, J: int,
               layers: int) -> None:
    """Cache a basis to disk, keyed on everything that shapes its columns."""
    np.savez_compressed(
        path, R=basis.R, col_elem=basis.col_elem, col_index=basis.col_index,
        tags=basis.tags, version=BASIS_FORMAT, coarse_n=grid.coarse_n,
        refine=grid.refine, L=L, J=J, layers=layers,
        checksum=field_checksum(field_))


def load_basis(path, grid: GridHierarchy, field_: assembly.PermeabilityField,
               *, L: int, J: int, layers: int) -> ReducedBasis:
    """Reload a cached basis after checking its format and every key."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"]) if "version" in data else 1
        if version != BASIS_FORMAT:
            raise ValueError(f"basis cache has format version {version}, "
                             f"expected {BASIS_FORMAT}")
        for name, want in (("coarse_n", grid.coarse_n), ("refine", grid.refine)):
            if int(data[name]) != want:
                raise ValueError(f"basis cache was built for a different grid: "
                                 f"{name}={int(data[name])}, expected {want}")
        for name, want in (("L", L), ("J", J), ("layers", layers)):
            if int(data[name]) != want:
                raise ValueError(f"basis cache was built with "
                                 f"{name}={int(data[name])}, expected {name}={want}")
        if str(data["checksum"]) != field_checksum(field_):
            raise ValueError("basis cache was built for a different field")
        return ReducedBasis(R=data["R"], col_elem=data["col_elem"],
                            col_index=data["col_index"], tags=data["tags"])

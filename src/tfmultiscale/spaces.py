"""Construction of the two coarse spaces.

V_{H,1} (the constraint-energy-minimizing space) comes from per-element
auxiliary spectral problems (stiffness vs kappa_tilde-weighted mass) and
oversampled, s-constrained energy minimizations.  V_{H,2} lives in the
kernel of the projection Pi and is built from L2-normalized eigenfunctions
of the constrained local problem, localized by doubly-constrained
minimizations.

All vectors are expressed on interior fine DOFs; every basis column is
supported inside its oversampling patch.

Both bases come from one patch loop, :func:`_localize`.  Every constraint
row is a moment against a function living on one coarse element, so each
element's interior unknowns and multipliers are eliminated once per basis
(static condensation, :func:`_condense`); a patch then solves only a sparse
SPD system on the fine DOFs of the coarse edges inside it, and every column
is checked against the residuals of its full patch saddle system.
"""

from __future__ import annotations

import hashlib
import warnings
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
    """Localized constraint-energy minimizers on oversampled patches.

    Column (i, j) minimizes energy on element i's patch subject to s-moments
    against every patch aux function equal to those of aux function (i, j).
    """
    A = assembly.assemble(grid, field_, "stiffness")
    SPsi = (aux.S @ aux.Psi).tocsc()
    targets = []
    for i in range(grid.n_coarse_elems):
        own = np.flatnonzero(aux.col_elem == i)
        targets.append((aux.Psi[:, own].T @ SPsi[:, own]).toarray())
    try:
        R = _localize(grid, A, SPsi.T, aux.col_elem, targets, layers)
    except SolveError as exc:
        raise SolveError(f"CEM basis solve failed {exc}") from exc
    return ReducedBasis(R=R, col_elem=aux.col_elem.copy(),
                        col_index=aux.col_index.copy(),
                        tags=np.array(["cem"] * aux.total))


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
    targets = []
    for i in range(grid.n_coarse_elems):
        own = np.flatnonzero(aux2.col_elem == i)
        moments = (aux2.Xi[:, own].T @ MXi[:, own]).toarray()
        zeros = np.zeros((np.count_nonzero(aux1.col_elem == i), len(own)))
        targets.append(np.vstack([zeros, moments]))
    C = sp.vstack([SPsi.T, MXi.T])
    row_elem = np.concatenate([aux1.col_elem, aux2.col_elem])
    try:
        R = _localize(grid, A, C, row_elem, targets, layers)
    except SolveError as exc:
        raise SolveError(f"V2 basis solve failed {exc}") from exc
    return ReducedBasis(R=R, col_elem=aux2.col_elem.copy(),
                        col_index=aux2.col_index.copy(),
                        tags=np.array(["v2"] * aux2.total))


def _localize(grid: GridHierarchy, A, C, row_elem, targets, layers: int,
              tol: float = 1e-9) -> np.ndarray:
    """Constrained energy minimizers on every oversampled patch.

    ``C`` holds one constraint row per auxiliary function; row r is a moment
    against a function supported in coarse element ``row_elem[r]``, so it
    lives on that element's closure.  ``targets[i]`` gives, for each basis
    column of element i, its moments against element i's rows (in row
    order); its moments against every other row are zero.  Column j of
    element i minimizes x^T A x on the patch around i subject to C_P x = g_P.
    Columns are returned element-major as an (n_dofs, total) array.

    Constraint rows are equilibrated to unit norm (mass-type rows carry h^2
    factors) and condensed onto the coarse skeleton by :func:`_condense`.
    A patch then only factors the skeleton operator S on its interior
    skeleton (SPD) by :func:`linalg._sparse_lu`, solves its right-hand sides
    as one block with one refinement step and lifts x = E x_S + Z_i.  Each
    column's constraint and stationarity residuals on the full patch saddle
    system are then checked, and the first failing column is reported.
    """
    n = grid.n_dofs
    A = sp.csr_matrix(A)
    C = sp.csr_matrix(C)
    row_elem = np.asarray(row_elem)
    C2 = C.multiply(C).tocsr()
    norms = np.sqrt(np.asarray(C2.sum(axis=1)).ravel())
    if np.any(norms <= 0):
        bad = int(np.flatnonzero(norms <= 0)[0])
        raise SolveError(f"on element {row_elem[bad]}: zero constraint row {bad}")
    pos, S, E, F, parts = _condense(grid, A, (sp.diags(1.0 / norms) @ C).tocsr(),
                                    row_elem, targets, norms)

    diag = np.abs(A.diagonal())
    R = np.zeros((n, sum(np.shape(g)[1] for g in targets)))
    col = 0
    for i, (interior, rows, Z, bpos, WZ) in enumerate(parts):
        patch = oversample(grid, i, layers)
        dofs = patch.local_dofs
        sk = pos[dofs]
        sk = sk[sk >= 0]
        k = Z.shape[1]
        rhs = np.zeros((S.shape[0], k))
        rhs[bpos] = -WZ
        xs = np.zeros_like(rhs)
        if len(sk):
            SP = S[sk][:, sk]
            lu = _sparse_lu(SP)
            xs[sk] = lu.solve(rhs[sk])
            xs[sk] += lu.solve(rhs[sk] - SP @ xs[sk])
        X = E @ xs
        mu = F @ xs
        X[interior] += Z[:len(interior)]
        mu[rows] += Z[len(interior):]

        # Residuals of the full patch saddle system, rows equilibrated on
        # the patch.  X vanishes outside the patch, so global products equal
        # the patch ones.
        prow = np.isin(row_elem, patch.elements)
        inside = np.zeros(n)
        inside[dofs] = 1.0
        pnorms = np.sqrt(C2 @ inside)[prow][:, None]
        G = np.zeros_like(mu)
        G[rows] = targets[i]
        Gs = G[prow] / pnorms
        res = np.linalg.norm((C @ X)[prow] / pnorms - Gs, axis=0)
        lam = np.where(prow[:, None], mu / norms[:, None], 0.0)
        res2 = np.linalg.norm((A @ X + C.T @ lam)[dofs], axis=0)
        scale = np.maximum(np.linalg.norm(Gs, axis=0), 1.0)
        stat_scale = np.maximum(scale, diag[dofs].max())
        # Tested as "within tolerance" so that a NaN residual fails too.
        ok = (res <= tol * scale) & (res2 <= tol * stat_scale)
        if not ok.all():
            j = int(np.flatnonzero(~ok)[0])
            raise SolveError(f"on element {i}: column {j}: constraint residual "
                             f"{res[j]:.3e}, stationarity residual {res2[j]:.3e}, "
                             f"above {tol:.1e}")
        R[:, col:col + k] = X
        col += k
    return R


def _condense(grid: GridHierarchy, A, Cs, row_elem, targets, norms):
    """Eliminate every element's interior unknowns and multipliers once.

    The skeleton is the set of DOFs on coarse-element edges.  Element e's
    interior DOFs I and multipliers are coupled to the rest only through its
    boundary skeleton B, by W_e = [[A_IB], [C_eB]], and are eliminated by a
    dense LU of its saddle block K_e = [[A_II, C_eI^T], [C_eI, 0]].  Returns
    the skeleton, the skeleton operator S = A_SS - sum_e W_e^T K_e^-1 W_e,
    the maps E (skeleton values to the full vector, the identity on the
    skeleton) and F (skeleton values to multipliers), and per element
    (I, its rows, Z_e, B's skeleton positions, W_e^T Z_e), where Z_e solves
    K_e Z_e = [0; g_e] for the element's own equilibrated targets.  The
    skeleton is given as ``pos``, each DOF's position in it or -1.
    """
    n = grid.n_dofs
    nodes = grid.interior_nodes()
    nn, r = grid.n_nodes_side, grid.refine
    on_skel = (nodes % nn % r == 0) | (nodes // nn % r == 0)
    skel = np.flatnonzero(on_skel)
    pos = np.full(n, -1)
    pos[skel] = np.arange(len(skel))

    S_tri, E_tri, F_tri = ([], [], []), ([], [], []), ([], [], [])
    parts = []
    for e in range(grid.n_coarse_elems):
        rows = np.flatnonzero(row_elem == e)
        I = element_interior_dofs(grid, e)
        closure = grid.fine_dof_map[grid.elem_maps[e][1]]
        B = closure[np.isin(closure, skel)]
        D = np.concatenate([I, B])
        nI, m = len(I), len(rows)
        AD = A[D][:, D].toarray()
        CD = Cs[rows][:, D].toarray()
        K = np.zeros((nI + m, nI + m))
        K[:nI, :nI] = AD[:nI, :nI]
        K[:nI, nI:] = CD[:, :nI].T
        K[nI:, :nI] = CD[:, :nI]
        W = np.vstack([AD[:nI, nI:], CD[:, nI:]])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", sla.LinAlgWarning)
                lu = sla.lu_factor(K)
        except sla.LinAlgWarning as exc:
            raise SolveError(f"on element {e}: singular local saddle block "
                             f"({exc})") from exc
        Y = sla.lu_solve(lu, W)
        g = np.asarray(targets[e], dtype=float) / norms[rows][:, None]
        # Non-finite targets are left to the residual check, which names
        # the column.
        Z = sla.lu_solve(lu, np.vstack([np.zeros((nI, g.shape[1])), g]),
                         check_finite=False)
        b = pos[B]
        for tri, rr, vals in ((S_tri, b, -(W.T @ Y)), (E_tri, I, -Y[:nI]),
                              (F_tri, rows, -Y[nI:])):
            tri[0].append(np.repeat(rr, len(b)))
            tri[1].append(np.tile(b, len(rr)))
            tri[2].append(vals.ravel())
        parts.append((I, rows, Z, b, W.T @ Z))

    def assemble(tri, shape):
        return sp.csr_matrix((np.concatenate(tri[2]), (np.concatenate(tri[0]),
                              np.concatenate(tri[1]))), shape=shape)

    ns = len(skel)
    S = (A[skel][:, skel] + assemble(S_tri, (ns, ns))).tocsr()
    identity = sp.csr_matrix((np.ones(ns), (skel, np.arange(ns))), shape=(n, ns))
    E = identity + assemble(E_tri, (n, ns))
    F = assemble(F_tri, (Cs.shape[0], ns))
    return pos, S, E, F, parts


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

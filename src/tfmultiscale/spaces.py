"""Construction of the two coarse spaces.

V_{H,1} (the constraint-energy-minimizing space) comes from per-element
auxiliary spectral problems (stiffness vs kappa_tilde-weighted mass) and
oversampled, s-constrained energy minimizations.  V_{H,2} lives in the
kernel of the projection Pi and is built from L2-normalized eigenfunctions
of the constrained local problem, localized by doubly-constrained
minimizations.

Both spaces are built by :func:`build_spaces` and nowhere else.  The two
spectral problems share one element loop, :func:`_local_eigs`; each
:class:`AuxSpace` carries the matrices it was solved with, so every fine
matrix is assembled once.

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
from dataclasses import dataclass

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
    """Per-element local eigenpairs, ``weight``-orthonormal within each element.

    ``vectors`` stacks all eigenvectors as sparse columns ordered by
    (element, local index).  For the first space ``weight`` is S, the
    kappa_tilde-weighted mass realizing the s-bilinear form; for the second
    it is the mass M and every vector lies in the Pi-kernel.  ``A`` is the
    stiffness the local problems were solved against.
    """

    values: list            # per element, ascending eigenvalues
    vectors: sp.csc_matrix  # (n_dofs, total)
    weight: sp.csr_matrix
    A: sp.csr_matrix
    col_elem: np.ndarray    # element id per column
    col_index: np.ndarray

    @property
    def total(self) -> int:
        return self.vectors.shape[1]


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


@dataclass
class CoarseSpaces:
    """Both coarse spaces of one field and the fine matrices they share."""

    A: sp.csr_matrix       # fine stiffness
    M: sp.csr_matrix       # fine mass
    aux1: AuxSpace
    aux2: AuxSpace
    basis1: ReducedBasis   # V_{H,1}
    basis2: ReducedBasis   # V_{H,2}
    combined: ReducedBasis


def build_spaces(grid: GridHierarchy, field_: assembly.PermeabilityField,
                 L: int, J: int, layers: int) -> CoarseSpaces:
    """Partition of unity, kappa_tilde, both spectral problems and bases;
    the spectral problems assemble stiffness, weighted mass and mass."""
    pou = assembly.msfem_partition(grid, field_)
    kt = assembly.kappa_tilde(field_, pou)
    aux1 = aux_spectral(grid, field_, kt, L)
    basis1 = cem_basis(grid, field_, aux1, layers)
    aux2 = v2_aux_spectral(grid, field_, aux1, J)
    basis2 = v2_basis(grid, field_, aux1, aux2, layers)
    return CoarseSpaces(A=aux1.A, M=aux2.weight, aux1=aux1, aux2=aux2,
                        basis1=basis1, basis2=basis2,
                        combined=combine(basis1, basis2))


def combine(first: ReducedBasis, second: ReducedBasis) -> ReducedBasis:
    return ReducedBasis(
        R=np.hstack([first.R, second.R]),
        col_elem=np.concatenate([first.col_elem, second.col_elem]),
        col_index=np.concatenate([first.col_index, second.col_index]),
        tags=np.concatenate([first.tags, second.tags]),
    )


def aux_spectral(grid: GridHierarchy, field_: assembly.PermeabilityField,
                 kt: assembly.WeightedField, L: int = DEFAULT_NBASIS) -> AuxSpace:
    """L smallest eigenpairs per element of local stiffness vs s_i; assembles
    the stiffness A and the weighted mass S."""
    A = assembly.assemble(grid, field_, "stiffness")
    S = assembly.assemble(grid, kt, "weighted_mass")
    return _local_eigs(grid, A, S, L)


def v2_aux_spectral(grid: GridHierarchy, field_: assembly.PermeabilityField,
                    aux1: AuxSpace, J: int = DEFAULT_NBASIS) -> AuxSpace:
    """J smallest local eigenpairs of stiffness vs mass in the Pi-kernel;
    assembles the mass M.  The stiffness is ``aux1.A``; ``field_`` is unused."""
    M = assembly.assemble(grid, None, "mass")
    return _local_eigs(grid, aux1.A, M, J, constraint=aux1)


def _local_eigs(grid: GridHierarchy, A, B, k: int,
                constraint: AuxSpace | None = None) -> AuxSpace:
    """k smallest eigenpairs of A v = lambda B v on every element interior.

    With a ``constraint`` space, element i's problem is restricted to the
    kernel of the weighted moments against the constraint's functions on
    element i (s_i-orthogonality to them when the constraint is the first
    auxiliary space).  The kernel is spanned by an explicit null-space basis
    Z, and Z^T A Z w = lambda Z^T B Z w is solved densely, v = Z w.
    """
    values, rows, cols, data = [], [], [], []
    for i in range(grid.n_coarse_elems):
        dofs = element_interior_dofs(grid, i)
        Aloc = A[dofs][:, dofs].toarray()
        Bloc = B[dofs][:, dofs].toarray()
        try:
            if constraint is not None:
                own = np.flatnonzero(constraint.col_elem == i)
                Cloc = (constraint.vectors[dofs][:, own].toarray().T
                        @ constraint.weight[dofs][:, dofs].toarray())
                Z = sla.null_space(Cloc)
                if Z.shape[1] < k:
                    raise SolveError(
                        f"element {i}: requested {k} constrained eigenpairs, "
                        f"space has dimension {Z.shape[1]}")
                Aloc, Bloc = Z.T @ Aloc @ Z, Z.T @ Bloc @ Z
            vals, vecs = sla.eigh(Aloc, Bloc, subset_by_index=(0, k - 1))
        except sla.LinAlgError as exc:
            raise SolveError(f"local eigenproblem failed on coarse element "
                             f"{i} ({exc})") from exc
        values.append(vals)
        rows.append(np.repeat(dofs, k))
        cols.append(np.tile(np.arange(i * k, (i + 1) * k), len(dofs)))
        data.append((vecs if constraint is None else Z @ vecs).ravel())
    ne = grid.n_coarse_elems
    vectors = sp.csc_matrix((np.concatenate(data), (np.concatenate(rows),
                                                    np.concatenate(cols))),
                            shape=(grid.n_dofs, ne * k))
    return AuxSpace(values=values, vectors=vectors, weight=B, A=A,
                    col_elem=np.repeat(np.arange(ne), k),
                    col_index=np.tile(np.arange(k), ne))


def _moments(aux: AuxSpace):
    """Constraint rows (weight @ vectors)^T of an auxiliary space, and per
    element the moments of its own functions against its own rows."""
    WV = (aux.weight @ aux.vectors).tocsc()
    own = [np.flatnonzero(aux.col_elem == i) for i in range(len(aux.values))]
    return WV.T, [(aux.vectors[:, o].T @ WV[:, o]).toarray() for o in own]


def cem_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
              aux: AuxSpace, layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Localized constraint-energy minimizers on oversampled patches.

    Column (i, j) minimizes energy on element i's patch subject to s-moments
    against every patch aux function equal to those of aux function (i, j).
    The stiffness is ``aux.A``; ``field_`` is unused.
    """
    C, targets = _moments(aux)
    try:
        R = _localize(grid, aux.A, C, aux.col_elem, targets, layers)
    except SolveError as exc:
        raise SolveError(f"CEM basis solve failed {exc}") from exc
    return ReducedBasis(R=R, col_elem=aux.col_elem.copy(),
                        col_index=aux.col_index.copy(),
                        tags=np.array(["cem"] * aux.total))


def v2_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
             aux1: AuxSpace, aux2: AuxSpace,
             layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Doubly-constrained localized basis of the second (Pi-kernel) space.

    Each column minimizes energy on its patch subject to vanishing s-moments
    against all patch aux1 functions and prescribed L2 moments against the
    patch aux2 functions.  The stiffness is ``aux1.A``; ``field_`` is unused.
    """
    C1 = (aux1.weight @ aux1.vectors).tocsc().T
    C2, moments = _moments(aux2)
    targets = [np.vstack([np.zeros((np.count_nonzero(aux1.col_elem == i),
                                    g.shape[1])), g])
               for i, g in enumerate(moments)]
    row_elem = np.concatenate([aux1.col_elem, aux2.col_elem])
    try:
        R = _localize(grid, aux1.A, sp.vstack([C1, C2]), row_elem, targets,
                      layers)
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

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
supported inside its oversampling patch.  Every element carries the same
number of local functions (L for V_{H,1}, J for V_{H,2}), so an element's
functions, constraint rows and targets are rows of fixed-width tables.

Both bases come from one patch loop, :func:`_localize`.  Every constraint
row is a moment against a function living on one coarse element, so each
element's interior unknowns and multipliers are eliminated once per basis
(static condensation, :func:`_condense`, stacked :func:`linalg.kkt_solve`
calls); a patch then solves only a sparse SPD system on the fine DOFs of
the coarse edges inside it.  The columns of a basis are then lifted to the
fine space and checked against the residuals of their full patch saddle
systems, a chunk of columns at a time.

Element, skeleton and patch index sets come from the grid's cached
:meth:`GridHierarchy.index_maps`; every element block of a sparse matrix is
read from its compressed structure in one gather (:func:`_blocks`), every
patch block by scipy's ``X[idx][:, idx]``.  Element eigenproblems are solved
by :func:`linalg._eig_smallest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import assembly
from .grid import GridHierarchy, IndexMaps
from .linalg import SolveError, _eig_smallest, _sparse_lu, kkt_solve

DEFAULT_LAYERS = 2
DEFAULT_NBASIS = 3


@dataclass(frozen=True)
class AuxSpace:
    """Per-element local eigenpairs, ``weight``-orthonormal within each element.

    Every element carries the same number k of functions.  ``vectors``
    stacks all eigenvectors as sparse columns, element-major: column
    e * k + j is function j of element e.  For the first space ``weight`` is
    S, the kappa_tilde-weighted mass realizing the s-bilinear form; for the
    second it is the mass M and every vector lies in the Pi-kernel.  ``A`` is
    the stiffness the local problems were solved against, and ``A_blocks``
    its element blocks (interior rows, interior-then-boundary columns),
    gathered once for both spaces' spectral problems and condensations.
    """

    values: list            # per element, ascending eigenvalues
    vectors: sp.csc_matrix  # (n_dofs, total)
    weight: sp.csr_matrix
    A: sp.csr_matrix
    A_blocks: np.ndarray    # (n_elements, n_interior, n_interior + n_boundary)

    @property
    def total(self) -> int:
        return self.vectors.shape[1]

    @property
    def columns(self) -> np.ndarray:
        """(n_elements, k) table of each element's column ids."""
        return np.arange(self.total).reshape(len(self.values), -1)

    @property
    def col_elem(self) -> np.ndarray:
        return np.arange(self.total) // self.columns.shape[1]

    @property
    def col_index(self) -> np.ndarray:
        return np.arange(self.total) % self.columns.shape[1]

    @cached_property
    def weighted(self) -> sp.csc_matrix:
        """``weight @ vectors``, formed once: the transposed constraint rows
        (moments against every function of the space)."""
        return (self.weight @ self.vectors).tocsc()


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
    Z, and Z^T A Z w = lambda Z^T B Z w is solved densely, v = Z w, by
    :func:`linalg._eig_smallest`, whose failures are raised naming the
    element.  Every element block is taken from the grid's index maps in one
    gather per matrix; with a constraint space, whose stiffness A must be,
    A's blocks (see :class:`AuxSpace`) are reused from it.
    """
    maps = grid.index_maps(0)       # element maps are the same for every layers
    interior, (ne, ni) = maps.interior, maps.interior.shape
    AD = (constraint.A_blocks if constraint is not None else
          _blocks(A, interior, np.hstack([interior, maps.boundary])))
    A_blocks, B_blocks = AD[:, :, :ni], _blocks(B, interior, interior)
    if constraint is not None:
        V_blocks = _blocks(constraint.vectors.T, constraint.columns, interior)
        W_blocks = _blocks(constraint.weight, interior, interior)
    values, data = [], np.empty((ne, ni, k))
    for i in range(ne):
        Aloc, Bloc = A_blocks[i], B_blocks[i]
        if constraint is not None:
            Z = sla.null_space(V_blocks[i] @ W_blocks[i])
            Aloc, Bloc = Z.T @ Aloc @ Z, Z.T @ Bloc @ Z
        try:
            vals, vecs = _eig_smallest(Aloc, Bloc, k)
        except SolveError as exc:
            raise SolveError(f"on element {i}: {exc}") from exc
        values.append(vals)
        data[i] = vecs if constraint is None else Z @ vecs
    cols = np.arange(ne)[:, None] * k + np.tile(np.arange(k), ni)
    vectors = sp.csc_matrix((data.ravel(), (np.repeat(interior.ravel(), k),
                                            cols.ravel())),
                            shape=(grid.n_dofs, ne * k))
    return AuxSpace(values=values, vectors=vectors, weight=B, A=A, A_blocks=AD)


def _row_entries(X, rows):
    """Positions in ``X.indices``/``X.data`` of every entry of the compressed
    rows (CSR) or columns (CSC) ``rows``, one after another, and each one's
    entry count."""
    start = X.indptr[rows]
    count = X.indptr[rows + 1] - start
    return (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(count.sum())), count


def _blocks(X, rows, cols) -> np.ndarray:
    """Dense blocks ``X[rows[e]][:, cols[e]]`` stacked over e, read from the
    sparse structure of X (without duplicate entries) in one gather; a
    column index of -1 pads with zeros.  The column indices of each block
    must be distinct."""
    X = sp.csr_matrix(X)
    n = X.shape[1]
    out = np.zeros(rows.shape + cols.shape[1:])
    ce, cq = np.nonzero(cols >= 0)
    if not len(ce):
        return out
    k, count = _row_entries(X, rows.ravel())
    e, p = np.divmod(np.repeat(np.arange(rows.size), count), rows.shape[1])
    # Locate each entry's column in its own block's column list.
    keys = ce * n + cols[ce, cq]
    order = np.argsort(keys)
    keys, cq = keys[order], cq[order]
    probe = e * n + X.indices[k]
    at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    hit = keys[at] == probe
    out[e[hit], p[hit], cq[at[hit]]] = X.data[k[hit]]
    return out


def _moments(aux: AuxSpace) -> np.ndarray:
    """Per element, the (k, k) moments of its own functions against its own
    constraint rows.

    Each function lives on its element's interior and each row on its
    element's closure, so the moment matrix is block diagonal and one
    product gives every element's block.
    """
    own = aux.columns
    return _blocks(aux.vectors.T @ aux.weighted, own, own)


def cem_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
              aux: AuxSpace, layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Localized constraint-energy minimizers on oversampled patches.

    Column (i, j) minimizes energy on element i's patch subject to s-moments
    against every patch aux function equal to those of aux function (i, j).
    The stiffness is ``aux.A``; ``field_`` is unused.
    """
    try:
        R = _localize(grid, aux.A, aux.A_blocks, aux.weighted.T, aux.columns,
                      _moments(aux), layers)
    except SolveError as exc:
        raise SolveError(f"CEM basis solve failed {exc}") from exc
    return ReducedBasis(R=R, col_elem=aux.col_elem, col_index=aux.col_index,
                        tags=np.array(["cem"] * aux.total))


def v2_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
             aux1: AuxSpace, aux2: AuxSpace,
             layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Doubly-constrained localized basis of the second (Pi-kernel) space.

    Each column minimizes energy on its patch subject to vanishing s-moments
    against all patch aux1 functions and prescribed L2 moments against the
    patch aux2 functions.  The stiffness is ``aux1.A``; ``field_`` is unused.
    """
    moments = _moments(aux2)
    ne, L = aux1.columns.shape
    targets = np.concatenate([np.zeros((ne, L, moments.shape[2])), moments],
                             axis=1)
    rows = np.hstack([aux1.columns, aux1.total + aux2.columns])
    try:
        R = _localize(grid, aux1.A, aux1.A_blocks,
                      sp.vstack([aux1.weighted.T, aux2.weighted.T]), rows,
                      targets, layers)
    except SolveError as exc:
        raise SolveError(f"V2 basis solve failed {exc}") from exc
    return ReducedBasis(R=R, col_elem=aux2.col_elem, col_index=aux2.col_index,
                        tags=np.array(["v2"] * aux2.total))


# Columns lifted and checked together: the checks hold a few
# (n_dofs, CHECK_COLUMNS) arrays.
CHECK_COLUMNS = 64
# Element saddle blocks per stacked kkt_solve: the K stack and its
# temporaries then take about 3 MB on experiment 1's grid, whatever the
# number of elements.
SOLVE_ELEMENTS = 16


def _localize(grid: GridHierarchy, A, AD, C, rows, targets, layers: int,
              tol: float = 1e-9) -> np.ndarray:
    """Constrained energy minimizers on every oversampled patch.

    ``C`` holds one constraint row per auxiliary function; the (ne, m) table
    ``rows`` lists each coarse element's rows, every row of C exactly once.
    A row of element e is a moment against a function supported in e, so it
    lives on e's closure.  In the (ne, m, k) array ``targets``,
    ``targets[i]`` gives, for each of the k basis columns of element i, its
    moments against element i's rows (in ``rows[i]`` order); its moments
    against every other row are zero.  Column j of element i minimizes x^T A x on the patch around i
    subject to C_P x = g_P.  Columns are returned element-major as an
    (n_dofs, ne * k) array.  ``AD`` holds A's element blocks (see
    :class:`AuxSpace`).

    Constraint rows are equilibrated to unit norm (mass-type rows carry h^2
    factors) and condensed onto the coarse skeleton by :func:`_condense`.
    Patch i then factors the skeleton operator S on its interior skeleton
    (SPD) by :func:`linalg._sparse_lu`, in element order, and solves its
    right-hand sides as one block with one refinement step.  The skeleton
    solutions of all patches are then lifted, x = E x_S + Z_i, and every
    column's constraint and stationarity residuals on its full patch saddle
    system are checked, a chunk of columns at a time; the first failing
    column in element-major order is reported.
    """
    maps = grid.index_maps(layers)
    A = sp.csr_matrix(A)
    C = sp.csr_matrix(C)
    ne, _, k = targets.shape
    row_elem = np.empty(C.shape[0], dtype=int)
    row_elem[rows] = np.arange(ne)[:, None]
    C2 = C.multiply(C).tocsr()
    norms = np.sqrt(np.asarray(C2.sum(axis=1)).ravel())
    if np.any(norms <= 0):
        bad = int(np.flatnonzero(norms <= 0)[0])
        raise SolveError(f"on element {row_elem[bad]}: zero constraint row {bad}")
    # R is allocated before the condensation's large temporaries: allocated
    # after them, it keeps their freed heap resident (on experiment 1 the
    # process peak RSS rose by about 18 MB).
    R = np.zeros((grid.n_dofs, ne * k))
    Cs = C.copy()
    Cs.data *= np.repeat(1.0 / norms, np.diff(C.indptr))
    S, E, F, Z, WZ = _condense(maps, A, AD, Cs, rows, targets, norms)

    XS = np.zeros((S.shape[0], ne * k))
    S = S.tocsc()
    for i, sk in enumerate(maps.patch_skeleton):
        if not len(sk):
            continue
        # Element i's boundary skeleton carries its right-hand sides; take
        # the part inside the patch's skeleton (all of it when layers >= 1).
        b = maps.skeleton_pos[maps.boundary[i][maps.boundary_mask[i]]]
        at = np.minimum(np.searchsorted(sk, b), len(sk) - 1)
        hit = sk[at] == b
        rhs = np.zeros((len(sk), k))
        rhs[at[hit]] = -WZ[i][maps.boundary_mask[i]][hit]
        SP = S[sk][:, sk]
        lu = _sparse_lu(SP)
        xs = lu.solve(rhs)
        xs += lu.solve(rhs - SP @ xs)
        XS[sk, i * k:(i + 1) * k] = xs

    # Lift and check the columns of a few elements at a time, so that no
    # (n_dofs, total) array but R is held.
    nI = maps.interior.shape[1]
    diag = np.abs(A.diagonal())
    col_elem = np.repeat(np.arange(ne), k)
    step = max(1, CHECK_COLUMNS // max(k, 1))
    for e0 in range(0, ne, step):
        e1 = min(e0 + step, ne)
        c0, c1 = e0 * k, e1 * k
        R[:, c0:c1] = E @ XS[:, c0:c1]
        mu = F @ XS[:, c0:c1]
        G = np.zeros_like(mu)
        inside = np.zeros((grid.n_dofs, c1 - c0))
        diag_max = np.empty(c1 - c0)
        for e in range(e0, e1):
            cols = slice(e * k - c0, (e + 1) * k - c0)
            R[maps.interior[e], e * k:(e + 1) * k] += Z[e][:nI]
            mu[rows[e], cols] += Z[e][nI:]
            G[rows[e], cols] = targets[e]
            inside[maps.patch_dofs[e], cols] = 1.0
            diag_max[cols] = diag[maps.patch_dofs[e]].max()
        X = R[:, c0:c1]
        # Rows of the elements in each column's patch, equilibrated on the
        # patch.  X vanishes outside its patch, so global products equal
        # the patch ones.
        prow = maps.in_patch[col_elem[c0:c1]][:, row_elem].T
        pn = np.sqrt(C2 @ inside)
        Gs = np.divide(G, pn, out=np.zeros_like(G), where=prow)
        res = np.linalg.norm(np.divide(C @ X, pn, out=np.zeros_like(G),
                                       where=prow) - Gs, axis=0)
        lam = np.where(prow, mu / norms[:, None], 0.0)
        res2 = np.linalg.norm(np.where(inside > 0, A @ X + C.T @ lam, 0.0),
                              axis=0)
        scale = np.maximum(np.linalg.norm(Gs, axis=0), 1.0)
        stat_scale = np.maximum(scale, diag_max)
        # Tested as "within tolerance" so that a NaN residual fails too.
        ok = (res <= tol * scale) & (res2 <= tol * stat_scale)
        if not ok.all():
            j = c0 + int(np.flatnonzero(~ok)[0])
            i = col_elem[j]
            raise SolveError(f"on element {i}: column {j - i * k}: "
                             f"constraint residual {res[j - c0]:.3e}, "
                             f"stationarity residual {res2[j - c0]:.3e}, "
                             f"above {tol:.1e}")
    return R


def _condense(maps: IndexMaps, A, AD, Cs, rows, targets, norms):
    """Eliminate every element's interior unknowns and multipliers once.

    The skeleton is the set of DOFs on coarse-element edges.  Element e's
    interior DOFs I and multipliers are coupled to the rest only through its
    boundary skeleton B, by W_e = [[A_IB], [C_eB]], and are eliminated
    through its saddle block K_e = [[A_II, C_eI^T], [C_eI, 0]].  A's element
    blocks are ``AD`` (see :class:`AuxSpace`); those of the equilibrated
    constraints ``Cs`` are gathered in one go.  The targets are checked to be
    finite, then a stacked :func:`linalg.kkt_solve` per SOLVE_ELEMENTS
    elements solves K_e [Y_e | Z_e] = [W_e | [0; g_e]] under its
    backward-error contract, a failure naming the element.  S, E and F are
    each assembled from the stacked results once.

    Returns the skeleton operator S = A_SS - sum_e W_e^T K_e^-1 W_e, the
    maps E (skeleton values to the full vector, the identity on the
    skeleton) and F (skeleton values to multipliers), and the stacks of Z_e,
    which solves K_e Z_e = [0; g_e] for the element's own equilibrated
    targets, and of W_e^T Z_e (zero where a boundary node has no DOF).
    """
    interior, boundary, mask = maps.interior, maps.boundary, maps.boundary_mask
    skel, pos = maps.skeleton, maps.skeleton_pos
    ne, nI = interior.shape
    nb = boundary.shape[1]
    CD = _blocks(Cs, rows, np.hstack([interior, boundary]))
    g = targets / norms[rows][:, :, None]
    bad = np.argwhere(~np.isfinite(g).all(axis=1))
    if len(bad):
        raise SolveError(f"on element {bad[0][0]}: column {bad[0][1]}: "
                         f"non-finite target")
    W = np.concatenate([AD[:, :, nI:], CD[:, :, nI:]], axis=1)
    rhs = np.concatenate([W, np.concatenate([np.zeros((ne, nI, g.shape[2])), g],
                                            axis=1)], axis=2)
    Y = np.empty_like(rhs)
    for e0 in range(0, ne, SOLVE_ELEMENTS):
        at = slice(e0, e0 + SOLVE_ELEMENTS)
        try:
            Y[at, :nI], Y[at, nI:] = kkt_solve(AD[at, :, :nI], CD[at, :, :nI],
                                               rhs[at, :nI], rhs[at, nI:])
        except SolveError as exc:
            raise SolveError(f"on element {e0 + exc.block}: {exc.reason}") from exc
    Wt = W.transpose(0, 2, 1)
    S_blocks = -(Wt @ Y[:, :, :nb])
    E_blocks, F_blocks = -Y[:, :nI, :nb], -Y[:, nI:, :nb]
    Z = Y[:, :, nb:]

    bpos = pos[boundary]

    def assemble(blocks, block_rows, valid, shape, first=((), (), ())):
        # Entries element by element, each block row-major, after ``first``.
        full = (ne,) + blocks.shape[1:]
        keep = np.broadcast_to(valid, full)
        return sp.csr_matrix((
            np.concatenate([first[0], blocks[keep]]),
            (np.concatenate([first[1], np.broadcast_to(block_rows[:, :, None],
                                                       full)[keep]]),
             np.concatenate([first[2], np.broadcast_to(bpos[:, None, :],
                                                       full)[keep]]))),
            shape=shape)

    ns = len(skel)
    S = (A[skel][:, skel] + assemble(S_blocks, bpos, mask[:, :, None]
                                     & mask[:, None, :], (ns, ns))).tocsr()
    # The identity on the skeleton shares no entry with the interior rows.
    E = assemble(E_blocks, interior, mask[:, None, :], (len(pos), ns),
                 first=(np.ones(ns), skel, np.arange(ns)))
    F = assemble(F_blocks, rows, mask[:, None, :], (Cs.shape[0], ns))
    return S, E, F, Z, Wt @ Z


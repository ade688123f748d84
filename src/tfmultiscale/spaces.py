"""Construction of the two coarse spaces.

V_{H,1} (the constraint-energy-minimizing space) comes from per-element
auxiliary spectral problems (stiffness vs kappa_tilde-weighted mass) and
oversampled, s-constrained energy minimizations.  V_{H,2} lives in the
kernel of the projection Pi and is built from L2-normalized eigenfunctions
of the constrained local problem, localized by doubly-constrained
minimizations.

Both spaces are built by :func:`build_spaces` and nowhere else; it returns
what the online phase reads, the fine stiffness and mass and the combined
basis.  The two spectral problems share one element loop,
:func:`_local_eigs`; each :class:`AuxSpace` carries the matrices it was
solved with (every fine matrix is assembled once), its functions as a dense
element table and its moment table, the one form of its constraint rows.

All vectors are expressed on interior fine DOFs; every basis column is
supported inside its oversampling patch.  Every element carries the same
number of local functions (L for V_{H,1}, J for V_{H,2}), so an element's
functions and constraint rows are rows of fixed-width tables.  Both bases
take unit moments as targets: the last k of an element's m constraint rows
carry them, one per basis column, so a count k stands for the targets.

Both bases come from one patch loop, :func:`_localize`.  Every constraint
row is a moment against a function living on one coarse element, so each
element's interior unknowns and multipliers are eliminated once per basis
(static condensation, :func:`_condense`, one stacked :func:`linalg.kkt_solve`
on the moment table); a patch then solves only an SPD band system, by banded
Cholesky, on the fine DOFs of the coarse edges inside it (row-major: width
at most 2 (2 layers + 1) refine).  Its basis columns are lifted by the element
solution tables and checked against their full patch saddle residuals.

Element, skeleton and patch index sets come from the grid's cached
:meth:`GridHierarchy.index_maps`.  Element blocks (:func:`_blocks`), patch
bands (:func:`_patch_solves`) and the constraint rows are gathered by the
grid's read plans (:func:`assembly._plan`), and every sparse matrix made of
element blocks is written by one :func:`assembly._scatter`.  An index of -1
(a boundary node without a DOF) is padding, read as zero by ``_blocks`` and
by the lift, dropped by ``_scatter``.  Element
eigenproblems are solved by :func:`linalg._eig_smallest`, in the kernels that
one stacked SVD finds (:func:`_kernels`) for the second problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assembly
from .grid import GridHierarchy, IndexMaps
from .linalg import (RANK_RTOL, SolveError, _banded_cholesky, _eig_smallest,
                     kkt_solve)

DEFAULT_LAYERS = 2
DEFAULT_NBASIS = 3


@dataclass(frozen=True)
class AuxSpace:
    """Per-element local eigenpairs, ``weight``-orthonormal within each element.

    Every element carries the same number k of functions, stacked in
    ``functions``: ``functions[e, :, j]`` is function j of element e on the
    DOFs ``interior[e]`` of the grid's index maps (zero elsewhere).  For the
    first space ``weight`` is
    S, the kappa_tilde-weighted mass realizing the s-bilinear form; for the
    second it is the mass M and every vector lies in the Pi-kernel.  ``A`` is
    the stiffness the local problems were solved against, and ``A_blocks``
    its element blocks (interior rows, interior-then-boundary columns),
    gathered once for both spaces' spectral problems and condensations.
    ``moments`` stacks each element's v^T B_e over its closure, in the
    columns of ``A_blocks`` (a -1 boundary column reads zero), formed where
    the functions are solved: the space's constraint rows for both bases,
    whose interior columns the second spectral problem reads.
    """

    values: list            # per element, ascending eigenvalues
    functions: np.ndarray   # (n_elements, n_interior, k)
    weight: sp.csr_matrix
    A: sp.csr_matrix
    A_blocks: np.ndarray    # (n_elements, n_interior, n_interior + n_boundary)
    moments: np.ndarray     # (n_elements, k, n_interior + n_boundary)


@dataclass
class ReducedBasis:
    """Fine-DOF x n coefficient matrix, columns element-major (column j of a
    single space belongs to element j // k); its first ``n1`` columns are
    treated implicitly by the partially explicit scheme."""

    R: np.ndarray
    n1: int

    @property
    def n(self) -> int:
        return self.R.shape[1]


@dataclass
class CoarseSpaces:
    """Both coarse spaces of one field and the fine matrices they share;
    V_{H,1} is the first ``combined.n1`` columns of ``combined.R``."""

    A: sp.csr_matrix       # fine stiffness
    M: sp.csr_matrix       # fine mass
    combined: ReducedBasis


def build_spaces(grid: GridHierarchy, field_: assembly.PermeabilityField,
                 L: int, J: int, layers: int) -> CoarseSpaces:
    """Partition of unity, kappa_tilde, both spectral problems and bases;
    the spectral problems assemble stiffness, weighted mass and mass."""
    kt = assembly.kappa_tilde(field_, assembly.msfem_partition(grid, field_))
    aux1 = aux_spectral(grid, field_, kt, L)
    basis1 = cem_basis(grid, field_, aux1, layers)
    aux2 = v2_aux_spectral(grid, field_, aux1, J)
    basis2 = v2_basis(grid, field_, aux1, aux2, layers)
    return CoarseSpaces(A=aux1.A, M=aux2.weight, combined=combine(basis1, basis2))


def combine(first: ReducedBasis, second: ReducedBasis) -> ReducedBasis:
    return ReducedBasis(R=np.hstack([first.R, second.R]), n1=first.n)


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
    auxiliary space), the interior columns of ``constraint.moments``: with Z
    their kernel basis (:func:`_kernels`), Z^T A Z w = lambda Z^T B Z w is
    projected by stacked products and solved, v = Z w, by
    :func:`linalg._eig_smallest`, whose failures are raised naming the
    element.  B's boundary blocks, which only the moment table reads, are
    gathered apart; with a constraint space, whose stiffness A must be, A's
    blocks (see :class:`AuxSpace`) are reused from it.
    """
    maps = grid.index_maps(0)       # element maps are the same for every layers
    interior, (ne, ni) = maps.interior, maps.interior.shape
    AD = (constraint.A_blocks if constraint is not None else
          _blocks(grid, "closure", A, interior, np.hstack([interior, maps.boundary])))
    A_blocks, B_blocks = AD[:, :, :ni], _blocks(grid, "interior", B, interior, interior)
    Z = None if constraint is None else _kernels(constraint.moments[:, :, :ni])
    Aloc, Bloc = ((A_blocks, B_blocks) if Z is None else
                  (Z.transpose(0, 2, 1) @ X @ Z for X in (A_blocks, B_blocks)))
    values, data = [], np.empty((ne, ni, k))
    for i in range(ne):
        try:
            vals, vecs = _eig_smallest(Aloc[i], Bloc[i], k)
        except SolveError as exc:
            raise SolveError(f"on element {i}: {exc}") from exc
        values.append(vals)
        data[i] = vecs if Z is None else Z[i] @ vecs
    # B's boundary columns are gathered apart, after the solves: B's closure
    # blocks held through them raised experiment 1's peak RSS by up to 20 MB.
    V = np.ascontiguousarray(data.transpose(0, 2, 1))
    moments = np.concatenate(
        [V @ B_blocks, V @ _blocks(grid, "boundary", B, interior, maps.boundary)],
        axis=2)
    return AuxSpace(values=values, functions=data, weight=B, A=A, A_blocks=AD,
                    moments=moments)


def _kernels(C) -> np.ndarray:
    """Orthonormal kernel bases of the stacked rows C_e by one SVD, row-major
    as from ``sla.null_space`` (the products they enter round by layout);
    rows not of full rank (relative RANK_RTOL) raise SolveError naming e."""
    _, sv, vt = np.linalg.svd(C)
    for e in np.flatnonzero(~(sv[:, -1] > RANK_RTOL * sv[:, 0]))[:1]:
        raise SolveError(f"on element {e}: constraint moments are rank deficient "
                         f"(singular values {sv[e, 0]:.3e} to {sv[e, -1]:.3e})")
    return np.ascontiguousarray(vt[:, C.shape[1]:].transpose(0, 2, 1))


def _row_entries(X, rows):
    """Positions in ``X.indices``/``X.data`` of every entry of the compressed
    rows (CSR) or columns (CSC) ``rows``, one after another, and each one's
    entry count."""
    start = X.indptr[rows]
    count = X.indptr[rows + 1] - start
    return (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(count.sum())), count


def _blocks(grid: GridHierarchy, key, X, rows, cols) -> np.ndarray:
    """Dense blocks ``X[rows[e]][:, cols[e]]`` stacked over e (a column of -1
    reads zeros) of X without duplicate entries, by the grid's plan ``key``
    (:func:`assembly._plan`): where each entry of the rows goes in the
    blocks, flat, and where it is in ``X.data``.  The column indices of each
    block must be distinct."""
    X = sp.csr_matrix(X)
    out = np.zeros(rows.shape + cols.shape[1:])

    def build(X):
        n = X.shape[1]
        ce, cq = np.nonzero(cols >= 0)
        k, count = _row_entries(X, rows.ravel())
        e, p = np.divmod(np.repeat(np.arange(rows.size), count), rows.shape[1])
        # Locate each entry's column in its own block's column list.
        keys = ce * n + cols[ce, cq]
        order = np.argsort(keys)
        keys, cq = keys[order], cq[order]
        probe = e * n + X.indices[k]
        at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        hit = keys[at] == probe
        yield (np.ravel_multi_index((e[hit], p[hit], cq[at[hit]]), out.shape),
               k[hit]), int(hit.sum())

    ((flat, pos),) = assembly._plan(grid, key, X, build)
    out.reshape(-1)[flat] = X.data[pos]
    return out


def cem_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
              aux: AuxSpace, layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Localized constraint-energy minimizers on oversampled patches.

    Column (i, j) minimizes energy on element i's patch subject to unit
    s-moments: 1 against aux function (i, j), 0 against every other patch
    aux function.  These are the moments of aux function (i, j) itself, the
    aux functions being s-orthonormal.  All columns are implicit (n1 = n).
    The stiffness is ``aux.A``; ``field_`` is unused.
    """
    try:
        R = _localize(grid, aux.A, aux.A_blocks, aux.moments,
                      aux.moments.shape[1], layers)
    except SolveError as exc:
        raise SolveError(f"CEM basis solve failed {exc}") from exc
    return ReducedBasis(R=R, n1=R.shape[1])


def v2_basis(grid: GridHierarchy, field_: assembly.PermeabilityField,
             aux1: AuxSpace, aux2: AuxSpace,
             layers: int = DEFAULT_LAYERS) -> ReducedBasis:
    """Doubly-constrained localized basis of the second (Pi-kernel) space.

    Column (i, j) minimizes energy on its patch subject to vanishing
    s-moments against all patch aux1 functions and unit L2 moments against
    the patch aux2 functions: 1 against aux2 function (i, j), 0 against the
    others, the moments of that L2-orthonormal function itself.  All
    columns are explicit (n1 = 0).  The stiffness is ``aux1.A``; ``field_``
    is unused.
    """
    try:
        R = _localize(grid, aux1.A, aux1.A_blocks,
                      np.concatenate([aux1.moments, aux2.moments], axis=1),
                      aux2.moments.shape[1], layers)
    except SolveError as exc:
        raise SolveError(f"V2 basis solve failed {exc}") from exc
    return ReducedBasis(R=R, n1=0)


# Columns lifted and checked together: the checks hold a few
# (n_dofs, CHECK_COLUMNS) arrays.
CHECK_COLUMNS = 64
# Relative tolerance of every basis column's constraint and stationarity
# residuals on its patch saddle system.
RESIDUAL_TOL = 1e-9


def _localize(grid: GridHierarchy, A, AD, CT, k: int,
              layers: int) -> np.ndarray:
    """Constrained energy minimizers on every oversampled patch.

    ``CT`` is the (ne, m, n_interior + n_boundary) table of every coarse
    element's m constraint rows on its closure, in the columns of A's
    element blocks ``AD`` (see :class:`AuxSpace`): a row of element e is a
    moment against a function supported in e.  Element i has k basis
    columns; column j's target moments are 1 against element i's row
    m - k + j and 0 against every other row (both bases take unit moments,
    the auxiliary eigenvectors being orthonormal in their weight).  Column j
    of element i minimizes x^T A x on the patch around i subject to
    C_P x = g_P, C_P the rows of the patch's elements.  Columns are returned
    element-major as an (n_dofs, ne * k) array.

    Constraint rows are equilibrated to unit norm (mass-type rows carry h^2
    factors) and condensed onto the coarse skeleton by :func:`_condense`.
    Patch i then solves the skeleton operator S on its interior skeleton
    (SPD) for its right-hand sides as one block, by one banded Cholesky
    factorization and solve (:func:`_patch_solves`; a failure names the
    element).
    A chunk of columns at a time, the skeleton solutions x_S of all patches
    are then lifted by the condensation's element tables, -Y_e x_S (x_S on
    e's boundary) plus Z_e in e's own columns, and every column's constraint
    and stationarity residuals on its full patch saddle system are checked
    against RESIDUAL_TOL; the first failing column in element-major order is
    reported.
    """
    maps = grid.index_maps(layers)
    ne, m, _ = CT.shape
    norms = np.linalg.norm(CT, axis=2)
    for e, r in np.argwhere(norms <= 0)[:1]:
        raise SolveError(f"on element {e}: zero constraint row {r}")
    # R is allocated before the condensation's large temporaries: allocated
    # after them, it keeps their freed heap resident (on experiment 1 the
    # process peak RSS rose by about 18 MB).
    R = np.zeros((grid.n_dofs, ne * k))
    # Skeleton position of each boundary node, -1 where it has no DOF.
    bpos = np.where(maps.boundary_mask, maps.skeleton_pos[maps.boundary], -1)
    A_SS = assembly._submatrix(grid, "skeleton", A, maps.skeleton, maps.skeleton)
    S, Y, WZ = _condense(maps, A_SS, AD, CT * (1.0 / norms)[:, :, None], k,
                         norms, bpos)

    XS = _patch_solves(grid, layers, S, WZ, k)
    # The moment table scatters without duplicates, so C is the table moved.
    C = assembly._moved(grid, ("constraints", m), None, CT.ravel(), lambda v: (
        assembly._scatter(v.reshape(CT.shape), np.arange(ne * m).reshape(ne, m, 1),
                          np.hstack([maps.interior, maps.boundary])[:, None],
                          (ne * m, grid.n_dofs)).tocsr()))
    C2 = sp.csr_matrix((np.square(C.data), C.indices, C.indptr), shape=C.shape)

    # Lift and check the columns of a few elements at a time, so that no
    # (n_dofs, ne * k) array but R is held.
    nI, nb = maps.interior.shape[1], bpos.shape[1]
    unit = np.eye(m, k, k - m)
    diag = np.abs(A.diagonal())
    col_elem = np.repeat(np.arange(ne), k)
    step = max(1, CHECK_COLUMNS // max(k, 1))
    for e0 in range(0, ne, step):
        e1 = min(e0 + step, ne)
        c0, c1 = e0 * k, e1 * k
        # -x_S, its zero last row read at -1, and a zero column beside a lone
        # one: a one-column (BLAS gemv) product was seen to round by placement.
        XB = np.zeros((len(XS) + 1, max(c1 - c0, 2)))
        np.negative(XS[:, c0:c1], out=XB[:-1, :c1 - c0])
        V = (Y[:, :, :nb] @ XB[bpos])[:, :, :c1 - c0]
        own = np.arange(e1 - e0)[:, None]
        V[e0 + own, :, own * k + np.arange(k)] += Y[e0:e1, :, nb:].transpose(0, 2, 1)
        R[maps.interior, c0:c1] = V[:, :nI]
        R[maps.skeleton, c0:c1] = XS[:, c0:c1]
        mu = V[:, nI:].reshape(ne * m, -1)
        G = np.zeros_like(mu)
        inside = np.zeros((grid.n_dofs, c1 - c0))
        diag_max = np.empty(c1 - c0)
        for e in range(e0, e1):
            cols = slice(e * k - c0, (e + 1) * k - c0)
            G[e * m:(e + 1) * m, cols] = unit
            inside[maps.patch_dofs[e], cols] = 1.0
            diag_max[cols] = diag[maps.patch_dofs[e]].max()
        X = R[:, c0:c1]
        # Rows of the elements in each column's patch, equilibrated on the
        # patch.  X vanishes outside its patch, so global products equal
        # the patch ones.
        prow = np.repeat(maps.in_patch[col_elem[c0:c1]], m, axis=1).T
        pn = np.sqrt(C2 @ inside)
        Gs = np.divide(G, pn, out=np.zeros_like(G), where=prow)
        res = np.linalg.norm(np.divide(C @ X, pn, out=np.zeros_like(G),
                                       where=prow) - Gs, axis=0)
        lam = np.where(prow, mu / norms.reshape(-1, 1), 0.0)
        res2 = np.linalg.norm(np.where(inside > 0, A @ X + C.T @ lam, 0.0),
                              axis=0)
        scale = np.maximum(np.linalg.norm(Gs, axis=0), 1.0)
        stat_scale = np.maximum(scale, diag_max)
        # Tested as "within tolerance" so that a NaN residual fails too.
        ok = (res <= RESIDUAL_TOL * scale) & (res2 <= RESIDUAL_TOL * stat_scale)
        if not ok.all():
            j = c0 + int(np.flatnonzero(~ok)[0])
            i = col_elem[j]
            raise SolveError(f"on element {i}: column {j - i * k}: "
                             f"constraint residual {res[j - c0]:.3e}, "
                             f"stationarity residual {res2[j - c0]:.3e}, "
                             f"above {RESIDUAL_TOL:.1e}")
    return R


def _patch_solves(grid: GridHierarchy, layers: int, S, WZ, k: int) -> np.ndarray:
    """Every patch's skeleton solutions, (n_skeleton, ne * k): the right-hand
    sides -W_i^T Z_i scattered once, then patch i's lower band on its
    skeleton sk gathered from the canonical CSR S and solved once by
    :func:`linalg._banded_cholesky`.  The grid's plan of the bands
    (:func:`assembly._plan`) holds, read from the rows of S, each one's
    width, and where each entry goes (flat) and is in ``S.data``."""
    S.sum_duplicates()
    maps = grid.index_maps(layers)
    ns, ne = S.shape[0], len(maps.patch_skeleton)
    e, p = np.nonzero(maps.boundary_mask)
    XS = np.zeros((ns, ne * k))
    XS[maps.skeleton_pos[maps.boundary[e, p]][:, None],
       e[:, None] * k + np.arange(k)] = -WZ[e, p]

    def build(S):
        at_patch = np.full(ns, -1)
        for sk in maps.patch_skeleton:
            at_patch[sk] = np.arange(len(sk))
            at, count = _row_entries(S, sk)
            c = at_patch[S.indices[at]]
            d = np.repeat(np.arange(len(sk)), count) - c
            at_patch[sk] = -1
            low = np.flatnonzero((c >= 0) & (d >= 0))
            yield (int(d[low].max(initial=0)) + 1, d[low] * len(sk) + c[low],
                   at[low]), len(low)

    bands = assembly._plan(grid, ("bands", layers), S, build)
    for i, (width, flat, pos) in enumerate(bands):
        sk = maps.patch_skeleton[i]
        cols = slice(i * k, (i + 1) * k)
        rhs = XS[sk, cols]
        XS[:, cols] = 0.0
        if not len(sk):
            continue
        band = np.zeros(width * len(sk))
        band[flat] = S.data[pos]
        try:
            XS[sk, cols] = _banded_cholesky(band.reshape(width, -1), rhs)
        except SolveError as exc:
            raise SolveError(f"on element {i}: patch skeleton system is {exc}") from exc
    return XS


def _condense(maps: IndexMaps, A_SS, AD, CD, k: int, norms, bpos):
    """Eliminate every element's interior unknowns and multipliers once.

    The skeleton is the set of DOFs on coarse-element edges.  Element e's
    interior DOFs I and multipliers are coupled to the rest only through its
    boundary skeleton B, by W_e = [[A_IB], [C_eB]], and are eliminated
    through its saddle block K_e = [[A_II, C_eI^T], [C_eI, 0]].  A's element
    blocks are ``AD`` (see :class:`AuxSpace`), the equilibrated constraint
    rows ``CD`` the (ne, m, closure) table in the same columns.  g_e holds
    the unit targets of the last k of the element's rows (see
    :func:`_localize`), divided by those rows' ``norms``.  One stacked
    :func:`linalg.kkt_solve` solves K_e [Y_e | Z_e] = [W_e | [0; g_e]] under
    its backward-error contract, a failure naming the element.

    Returns the skeleton operator S = ``A_SS`` - sum_e W_e^T K_e^-1 W_e (one
    :func:`assembly._scatter`, ``bpos`` -1 at a boundary node without a DOF),
    the element tables [Y_e | Z_e] as solved, and the stack of W_e^T Z_e.
    """
    (ne, nI), nb = maps.interior.shape, bpos.shape[1]
    m = CD.shape[1]
    g = np.eye(m, k, k - m) / norms[:, :, None]
    W = np.concatenate([AD[:, :, nI:], CD[:, :, nI:]], axis=1)
    rhs = np.concatenate([W, np.concatenate([np.zeros((ne, nI, k)), g],
                                            axis=1)], axis=2)
    try:
        Y = np.concatenate(kkt_solve(AD[:, :, :nI], CD[:, :, :nI],
                                     rhs[:, :nI], rhs[:, nI:]), axis=1)
    except SolveError as exc:
        raise SolveError(f"on element {exc.block}: {exc.reason}") from exc
    WtY = _transposed_products(W, Y)
    S = (A_SS + assembly._scatter(
        -WtY[:, :, :nb], bpos[:, :, None], bpos[:, None, :], A_SS.shape)).tocsr()
    return S, Y, WtY[:, :, nb:]


def _transposed_products(W, Y) -> np.ndarray:
    """The stack of W_e^T Y_e; never one column (W_e^T Z_e at J = 1), whose
    BLAS matrix-vector product was seen to round by memory placement."""
    return W.transpose(0, 2, 1) @ Y


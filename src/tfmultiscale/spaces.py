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
:func:`_local_eigs`; each :class:`AuxSpace` carries the stiffness and its
element blocks (every fine matrix is assembled once), its functions as a
dense element table and its moment table, the one form of its constraint
rows.

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
on the moment table) into the lower band of the skeleton operator S, in
skeleton order; a patch then solves only an SPD band system, by banded
Cholesky, on the fine DOFs of the coarse edges inside it (row-major: width
at most 2 (2 layers + 1) refine), its band read from S's by index arithmetic
(:func:`_patch_solves`).  Its basis columns are lifted by the element
solution tables and checked against their full patch saddle residuals.

Element, skeleton and patch index sets come from the grid's cached
:meth:`GridHierarchy.index_maps`, each element's closure (interior DOFs,
then perimeter DOFs) in the grid's order.  Every element block of the
stiffness, the weighted mass and the mass is summed from the element's own
cells (:func:`assembly.element_blocks`), so no global weighted mass is
assembled, and no skeleton operator but its band.  An index of -1 (a
boundary node without a DOF) is padding, read as zero by the blocks, the
band and the lift.  Element eigenproblems are solved by
:func:`linalg._eig_smallest`, in the kernels that one stacked SVD finds
(:func:`_kernels`) for the second problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided

from . import assembly
from .grid import GridHierarchy, IndexMaps
from .linalg import (RANK_RTOL, SolveError, _banded_cholesky, _eig_smallest,
                     kkt_solve)

DEFAULT_LAYERS = 2
DEFAULT_NBASIS = 3


@dataclass(frozen=True)
class AuxSpace:
    """Per-element local eigenpairs, orthonormal in their weight within each
    element.

    Every element carries the same number k of functions, stacked in
    ``functions``: ``functions[e, :, j]`` is function j of element e on the
    DOFs ``interior[e]`` of the grid's index maps (zero elsewhere).  For the
    first space the weight is S, the kappa_tilde-weighted mass realizing the
    s-bilinear form; for the second it is the mass M and every vector lies
    in the Pi-kernel.  ``A`` is the stiffness the local problems were solved
    against, and ``A_blocks`` its element blocks (interior rows, the
    columns of the index maps' ``closure``), summed once for both spaces'
    spectral problems and condensations.
    ``moments`` stacks each element's v^T B_e over its closure, in the
    columns of ``A_blocks`` (a -1 boundary column reads zero), formed where
    the functions are solved: the space's constraint rows for both bases,
    whose interior columns the second spectral problem reads.
    """

    values: list            # per element, ascending eigenvalues
    functions: np.ndarray   # (n_elements, n_interior, k)
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
    the first spectral problem assembles the stiffness, and the mass is the
    grid's."""
    kt = assembly.kappa_tilde(field_, assembly.msfem_partition(grid, field_))
    aux1 = aux_spectral(grid, field_, kt, L)
    basis1 = cem_basis(grid, field_, aux1, layers)
    aux2 = v2_aux_spectral(grid, field_, aux1, J)
    basis2 = v2_basis(grid, field_, aux1, aux2, layers)
    return CoarseSpaces(A=aux1.A, M=assembly.assemble(grid, None, "mass"),
                        combined=combine(basis1, basis2))


def combine(first: ReducedBasis, second: ReducedBasis) -> ReducedBasis:
    return ReducedBasis(R=np.hstack([first.R, second.R]), n1=first.n)


def aux_spectral(grid: GridHierarchy, field_: assembly.PermeabilityField,
                 kt: assembly.WeightedField, L: int = DEFAULT_NBASIS) -> AuxSpace:
    """L smallest eigenpairs per element of local stiffness vs s_i; assembles
    the stiffness A."""
    return _local_eigs(grid, field_, kt.values, L)


def v2_aux_spectral(grid: GridHierarchy, field_: assembly.PermeabilityField,
                    aux1: AuxSpace, J: int = DEFAULT_NBASIS) -> AuxSpace:
    """J smallest local eigenpairs of stiffness vs mass in the Pi-kernel.
    The stiffness is ``aux1.A``; ``field_`` is unused."""
    return _local_eigs(grid, field_, np.ones(grid.n_cells), J, constraint=aux1)


def _local_eigs(grid: GridHierarchy, field_, weights, k: int,
                constraint: AuxSpace | None = None) -> AuxSpace:
    """k smallest eigenpairs of A v = lambda B v on every element interior,
    A the stiffness of ``field_`` and B the mass weighted by the per-cell
    ``weights``, both element blocks summed from the element's cells
    (:func:`assembly.element_blocks`).

    With a ``constraint`` space, whose stiffness and its blocks (see
    :class:`AuxSpace`) are reused, element i's problem is restricted to the
    kernel of the weighted moments against the constraint's functions on
    element i (s_i-orthogonality to them when the constraint is the first
    auxiliary space), the interior columns of ``constraint.moments``: with Z
    their kernel basis (:func:`_kernels`), Z^T A Z w = lambda Z^T B Z w is
    projected by stacked products and solved, v = Z w, by
    :func:`linalg._eig_smallest`, whose failures are raised naming the
    element.  B's boundary blocks, which only the moment table reads, are
    summed apart.
    """
    maps = grid.index_maps(0)       # element maps are the same for every layers
    (ne, ni), nc = maps.interior.shape, maps.closure.shape[1]
    # Closure positions of every element's columns, -1 at a node without a DOF.
    cols = np.where(maps.closure >= 0, np.arange(nc), -1)
    if constraint is None:
        A = assembly.assemble(grid, field_, "stiffness")
        AD = assembly.element_blocks(grid, field_.values, assembly._STIFF_REF, cols)
    else:
        A, AD = constraint.A, constraint.A_blocks
    mass = assembly.element_mass(grid.h)
    A_blocks = AD[:, :, :ni]
    B_blocks = assembly.element_blocks(grid, weights, mass, np.arange(ni))
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
    # B's boundary columns are summed apart, after the solves: B's closure
    # blocks held through them raised experiment 1's peak RSS by up to 20 MB.
    V = np.ascontiguousarray(data.transpose(0, 2, 1))
    moments = np.concatenate(
        [V @ B_blocks, V @ assembly.element_blocks(grid, weights, mass, cols[:, ni:])],
        axis=2)
    return AuxSpace(values=values, functions=data, A=A, A_blocks=AD,
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
    S, Y, WZ = _condense(maps, A, AD, CT * (1.0 / norms)[:, :, None], k, norms)

    XS = _patch_solves(maps, S, WZ, k)
    # The lift reads neither S's band nor W^T Z (a view of all W_e^T Y_e);
    # held through it, they raised experiment 1's peak RSS by about 4 MB.
    del S, WZ
    # C is the moment table in CSR, each element's closure columns sorted.
    order = np.argsort(maps.closure, axis=1)
    dofs = np.broadcast_to(np.sort(maps.closure, axis=1)[:, None], CT.shape)
    keep = dofs >= 0
    C = sp.csr_matrix((np.take_along_axis(CT, order[:, None], axis=2)[keep], dofs[keep],
                       np.r_[0, np.cumsum(keep.sum(axis=2))]), shape=(ne * m, grid.n_dofs))
    C2 = sp.csr_matrix((np.square(C.data), C.indices, C.indptr), shape=C.shape)

    # Lift and check the columns of a few elements at a time, so that no
    # (n_dofs, ne * k) array but R is held.
    nI, nb = maps.interior.shape[1], maps.boundary_pos.shape[1]
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
        V = (Y[:, :, :nb] @ XB[maps.boundary_pos])[:, :, :c1 - c0]
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


def _patch_solves(maps: IndexMaps, S, WZ, k: int) -> np.ndarray:
    """Every patch's skeleton solutions, (n_skeleton, ne * k): the right-hand
    sides -W_i^T Z_i scattered once, then patch i's lower band on its
    ascending skeleton positions sk read from S's lower band (see
    :func:`_condense`) by index arithmetic, band[d, q] = S[sk[q + d] - sk[q],
    sk[q]] and zero outside S's band, trimmed to its last nonzero diagonal
    and solved once by :func:`linalg._banded_cholesky`."""
    width, ns = S.shape
    ne = len(maps.patch_skeleton)
    # A perimeter node without a DOF (position -1) writes the spare last row.
    XS = np.zeros((ns + 1, ne * k))
    XS[maps.boundary_pos[:, :, None], np.arange(ne * k).reshape(ne, 1, k)] = -WZ
    # band[d, q] is flat[(sk[q + d] - sk[q]) * ns + sk[q]], ahead[d, q]
    # being sk[q + d] * ns with sk padded past its end.  An offset outside
    # S's band is clipped to S's last entry, S[ns - 1 + width - 1, ns - 1],
    # which lies outside S and is zero; with width 1 no offset is clipped.
    flat = S.ravel()
    pad = np.full(width, ns + width)
    for i, sk in enumerate(maps.patch_skeleton):
        cols = slice(i * k, (i + 1) * k)
        rhs = XS[sk, cols]
        XS[:, cols] = 0.0
        if not len(sk):
            continue
        ahead = np.concatenate([sk, pad]) * ns
        ahead = as_strided(ahead, (width, len(sk)), ahead.strides * 2, writeable=False)
        band = flat.take(ahead - sk * (ns - 1), mode="clip")
        band = band[:np.flatnonzero(band.any(axis=1)).max(initial=0) + 1]
        try:
            XS[sk, cols] = _banded_cholesky(band, rhs)
        except SolveError as exc:
            raise SolveError(f"on element {i}: patch skeleton system is {exc}") from exc
    return XS[:-1]


def _condense(maps: IndexMaps, A, AD, CD, k: int, norms):
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

    Returns the lower band of the skeleton operator S = A_SS - sum_e W_e^T
    K_e^-1 W_e (A_SS the skeleton block of ``A``) in skeleton order, a
    (width, n_skeleton) array whose row d holds S[j + d, j]; the element
    tables [Y_e | Z_e] as solved; and the stack of W_e^T Z_e.  One
    ``np.bincount`` sums each band entry: its element terms in C order
    (``boundary_pos`` -1 at a perimeter node without a DOF), then A's entry,
    read from A's own CSR arrays through ``skeleton_pos``.
    """
    bpos = maps.boundary_pos
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
    pos = maps.skeleton_pos
    i = np.concatenate([np.broadcast_to(bpos[:, :, None], (ne, nb, nb)).ravel(),
                        np.repeat(pos, np.diff(A.indptr))])
    j = np.concatenate([np.broadcast_to(bpos[:, None, :], (ne, nb, nb)).ravel(),
                        pos[A.indices]])
    low = (j >= 0) & (i >= j)
    d, ns = i[low] - j[low], len(maps.skeleton)
    S = np.bincount(d * ns + j[low],
                    weights=np.concatenate([-WtY[:, :, :nb].ravel(), A.data])[low],
                    minlength=(d.max(initial=0) + 1) * ns)
    return S.reshape(-1, ns), Y, WtY[:, :, nb:]


def _transposed_products(W, Y) -> np.ndarray:
    """The stack of W_e^T Y_e; never one column (W_e^T Z_e at J = 1), whose
    BLAS matrix-vector product was seen to round by memory placement."""
    return W.transpose(0, 2, 1) @ Y


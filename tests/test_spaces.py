"""Tests for the auxiliary spectral problems and the two localized coarse
bases."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import tfmultiscale as t
from tfmultiscale import assembly, harness, spaces, stability
from tfmultiscale.linalg import (SolveError, _banded_cholesky,
                                 _check_backward_error)
from tfmultiscale.spaces import (aux_spectral, build_spaces, cem_basis,
                                 v2_aux_spectral, v2_basis)


def channel_field(g, contrast=1e5):
    """Fixed thin-channel geometry on the fine grid of ``g``."""
    nf = g.n_fine
    mask = np.zeros((nf, nf), dtype=bool)
    q = max(nf // 5, 1)
    mask[q, 1:nf - 1] = True
    mask[2 * q, 2:nf - 2] = True
    mask[3 * q, 1:nf - 1] = True
    mask[q + 2:3 * q, 2 * q + 1] = True
    return assembly.PermeabilityField(np.where(mask.ravel(), float(contrast), 1.0))


def setup_spaces(coarse_n=5, refine=4, contrast=1e5, L=3, J=2):
    g = t.build_grids(coarse_n, refine)
    fld = channel_field(g, contrast)
    pou = assembly.msfem_partition(g, fld)
    kt = assembly.kappa_tilde(fld, pou)
    aux1 = aux_spectral(g, fld, kt, L)
    return g, fld, kt, aux1


def aux_spaces(g, fld, L, J):
    """The two auxiliary spaces ``build_spaces(g, fld, L, J, layers)`` solves,
    by the public functions it calls."""
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    aux1 = aux_spectral(g, fld, kt, L)
    return aux1, v2_aux_spectral(g, fld, aux1, J)


def aux_weights(g, fld):
    """The weights of the two auxiliary spaces of ``fld``, assembled: S, the
    kappa_tilde-weighted mass, and the mass M."""
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    return (assembly.assemble(g, kt, "weighted_mass"),
            assembly.assemble(g, None, "mass"))


def vectors(g, aux):
    """``aux.functions`` as sparse (n_dofs, n_elements * k) columns,
    element-major: column e * k + j is function j of element e."""
    ne, _, k = aux.functions.shape
    return assembly._scatter(aux.functions, g.index_maps(0).interior[:, :, None],
                             np.arange(ne * k).reshape(ne, 1, k),
                             (g.n_dofs, ne * k)).tocsc()


def coarse_bases(cs):
    """V_{H,1} and V_{H,2} of ``cs``: column views of its combined basis."""
    R, n1 = cs.combined.R, cs.combined.n1
    return (spaces.ReducedBasis(R=R[:, :n1], n1=n1),
            spaces.ReducedBasis(R=R[:, n1:], n1=0))


# ----------------------------------------------------------------- aux_spectral

def test_aux_eigenvalues_ascending_nonnegative():
    _, _, _, aux1 = setup_spaces()
    for vals in aux1.values:
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] >= -1e-10


def test_aux_s_orthonormal_per_element():
    g, fld, _, aux1 = setup_spaces()
    V1 = vectors(g, aux1)
    S, _ = aux_weights(g, fld)
    G = (V1.T @ (S @ V1)).toarray()
    # disjoint element-interior supports make the global Gram the identity
    assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-8


def test_aux_scaling_invariance():
    g = t.build_grids(3, 4)
    fld = channel_field(g)
    pou = assembly.msfem_partition(g, fld)
    kt = assembly.kappa_tilde(fld, pou)
    a1 = aux_spectral(g, fld, kt, 3)
    c = 5.0
    fld2 = assembly.PermeabilityField(c * fld.values)
    kt2 = assembly.WeightedField(c * kt.values)
    a2 = aux_spectral(g, fld2, kt2, 3)
    for v1, v2 in zip(a1.values, a2.values):
        assert np.allclose(v1, v2, rtol=1e-9)


def test_aux_degenerate_s_names_element():
    g = t.build_grids(2, 3)
    fld = assembly.PermeabilityField(np.ones(g.n_cells))
    kt = assembly.WeightedField(np.zeros(g.n_cells))
    with pytest.raises(SolveError, match="element 0"):
        aux_spectral(g, fld, kt, 2)


def test_non_spd_local_weight_names_its_element():
    """A weight whose block on one element interior is zero fails that
    element's eigensolve, and the error names the element."""
    g = t.build_grids(3, 4)
    fld = channel_field(g)
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld)).values.copy()
    kt[g.element_cells()[4]] = 0.0
    with pytest.raises(SolveError,
                       match="on element 4: generalized eigenproblem failed"):
        spaces._local_eigs(g, fld, kt, 2)


# -------------------------------------------------------------------- cem_basis

def test_cem_constraint_gram_identity():
    g, fld, _, aux1 = setup_spaces()
    b1 = cem_basis(g, fld, aux1, 2)
    V1 = vectors(g, aux1)
    S, _ = aux_weights(g, fld)
    G = V1.T @ (S @ b1.R)               # s-moments of each basis column
    expect = np.eye(V1.shape[1])
    assert np.max(np.abs(G - expect)) <= 1e-8


def test_cem_support_inside_patch():
    g, fld, _, aux1 = setup_spaces()
    layers = 1
    b1 = cem_basis(g, fld, aux1, layers)
    patch_dofs = g.index_maps(layers).patch_dofs
    k = b1.n // g.coarse_n ** 2       # columns are element-major
    for j in range(b1.n):
        outside = np.setdiff1d(np.arange(g.n_dofs), patch_dofs[j // k])
        assert np.allclose(b1.R[outside, j], 0.0)


def test_cem_energy_decay_to_global():
    """Localized minimizers converge to the whole-domain solve as layers grow."""
    g, fld, _, aux1 = setup_spaces(coarse_n=5, refine=4)
    A = assembly.assemble(g, fld, "stiffness")
    i = 12  # center element: layers=2 covers the whole 5x5 coarse grid
    bases = {k: cem_basis(g, fld, aux1, k) for k in (0, 1, 2)}

    def col(b):
        return b.R[:, i * (b.n // g.coarse_n ** 2)]

    glob = col(bases[2])  # whole-domain oracle
    errs = []
    for k in (0, 1, 2):
        d = col(bases[k]) - glob
        errs.append(np.sqrt(d @ (A @ d)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-10 * np.sqrt(glob @ (A @ glob))


# -------------------------------------------------------------- v2 construction

def test_v2_aux_in_pi_kernel():
    g, fld, _, aux1 = setup_spaces()
    aux2 = v2_aux_spectral(g, fld, aux1, 2)
    V1, V2 = vectors(g, aux1), vectors(g, aux2)
    S, _ = aux_weights(g, fld)
    for j in range(V2.shape[1]):
        xi = V2[:, j].toarray().ravel()
        coef = V1.T @ (S @ xi)
        assert np.max(np.abs(coef)) <= 1e-9


def test_v2_aux_ascending_l2_orthonormal():
    g, fld, _, aux1 = setup_spaces()
    aux2 = v2_aux_spectral(g, fld, aux1, 3)
    for vals in aux2.values:
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] >= -1e-10
    V2 = vectors(g, aux2)
    _, M = aux_weights(g, fld)
    G = (V2.T @ (M @ V2)).toarray()
    assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-8


def test_v2_aux_first_eig_contrast_robust():
    """gamma_1 per element varies by < 2x across contrasts 1e2..1e6.

    Uses thin channels (1 fine cell wide at refine=10); robustness needs the
    auxiliary space to resolve every high-kappa feature crossing an element.
    """
    firsts = {}
    for c in (1e2, 1e4, 1e6):
        g, fld, _, aux1 = setup_spaces(coarse_n=5, refine=10, contrast=c)
        aux2 = v2_aux_spectral(g, fld, aux1, 2)
        firsts[c] = np.array([v[0] for v in aux2.values])
    lo = np.minimum(np.minimum(firsts[1e2], firsts[1e4]), firsts[1e6])
    hi = np.maximum(np.maximum(firsts[1e2], firsts[1e4]), firsts[1e6])
    assert np.max(hi / lo) < 2.0


def test_aux_too_many_requested_names_element():
    g = t.build_grids(2, 3)
    fld = channel_field(g)
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    with pytest.raises(SolveError,
                       match="element 0: requested 5 eigenpairs, space has dimension 4"):
        aux_spectral(g, fld, kt, 5)


def test_v2_aux_too_many_requested():
    g, fld, _, aux1 = setup_spaces(coarse_n=2, refine=3, L=3)
    with pytest.raises(SolveError, match="element"):
        v2_aux_spectral(g, fld, aux1, 10)


def test_v2_basis_constraints():
    g, fld, _, aux1 = setup_spaces()
    aux2 = v2_aux_spectral(g, fld, aux1, 2)
    b2 = v2_basis(g, fld, aux1, aux2, 2)
    V1, V2 = vectors(g, aux1), vectors(g, aux2)
    S, M = aux_weights(g, fld)
    # s-orthogonality to every aux1 function
    G1 = V1.T @ (S @ b2.R)
    assert np.max(np.abs(G1)) <= 1e-8
    # L2 moments match those of the target eigenfunctions
    G2 = V2.T @ (M @ b2.R)
    XtMX = (V2.T @ (M @ V2)).toarray()
    for j in range(b2.n):   # V2 column j targets aux2 column j
        assert np.max(np.abs(G2[:, j] - XtMX[:, j])) <= 1e-8


def test_v2_nearly_a_orthogonal_to_cem():
    g = t.build_grids(5, 4)
    cs = build_spaces(g, channel_field(g), 3, 2, 3)
    A, (b1, b2) = cs.A, coarse_bases(cs)
    cross = b2.R.T @ (A @ b1.R)
    na = np.sqrt(np.einsum("ij,ij->j", b2.R, A @ b2.R))
    nb = np.sqrt(np.einsum("ij,ij->j", b1.R, A @ b1.R))
    assert np.max(np.abs(cross) / np.outer(na, nb)) <= 0.1


# ------------------------------------------------------------ patch solves

def _columns(aux):
    """(n_elements, k) table of each element's column ids in ``vectors``."""
    ne, _, k = aux.functions.shape
    return np.arange(ne * k).reshape(ne, k)


def _cem_patch_system(g, fld, aux1, i, layers):
    """Stiffness, constraints and target moments of element i's CEM patch."""
    A = assembly.assemble(g, fld, "stiffness")
    maps = g.index_maps(layers)
    dofs, elements = maps.patch_dofs[i], np.flatnonzero(maps.in_patch[i])
    acols = _columns(aux1)[elements].ravel()
    V1 = vectors(g, aux1)
    SPsi = (aux_weights(g, fld)[0] @ V1).tocsc()
    C = SPsi[dofs][:, acols].T.tocsr()
    own = np.flatnonzero(np.isin(acols, _columns(aux1)[i]))
    G = (V1[:, acols].T @ SPsi[:, acols[own]]).toarray()
    return A[dofs][:, dofs], C, G


def _v2_patch_system(g, fld, aux1, aux2, i, layers):
    """Stiffness, constraints and target moments of element i's V2 patch."""
    A = assembly.assemble(g, fld, "stiffness")
    maps = g.index_maps(layers)
    dofs, elements = maps.patch_dofs[i], np.flatnonzero(maps.in_patch[i])
    a1, a2 = _columns(aux1)[elements].ravel(), _columns(aux2)[elements].ravel()
    V1, V2 = vectors(g, aux1), vectors(g, aux2)
    S, M = aux_weights(g, fld)
    MXi = (M @ V2).tocsc()
    C = sp.vstack([(S @ V1)[dofs][:, a1].T, MXi[dofs][:, a2].T]).tocsr()
    own = np.flatnonzero(np.isin(a2, _columns(aux2)[i]))
    G2 = (V2[:, a2].T @ MXi[:, a2[own]]).toarray()
    G = np.vstack([np.zeros((len(a1), len(own))), G2])
    return A[dofs][:, dofs], C, G


def _dense_patch_solve(Ap, C, G):
    """Oracle: dense solve of the full patch KKT system."""
    nd, m = Ap.shape[0], C.shape[0]
    K = np.block([[Ap.toarray(), C.T.toarray()], [C.toarray(), np.zeros((m, m))]])
    rhs = np.vstack([np.zeros((nd, G.shape[1])), G])
    return np.linalg.solve(K, rhs)[:nd]


def _worst_patch_error(g, fld, aux1, aux2, layers):
    """Largest relative column error of both bases against the dense oracle."""
    b1 = cem_basis(g, fld, aux1, layers)
    b2 = v2_basis(g, fld, aux1, aux2, layers)
    worst = 0.0
    for basis, system in ((b1, lambda i: _cem_patch_system(g, fld, aux1, i, layers)),
                          (b2, lambda i: _v2_patch_system(g, fld, aux1, aux2, i, layers))):
        for i in range(g.coarse_n ** 2):
            dofs = g.index_maps(layers).patch_dofs[i]
            k = basis.n // g.coarse_n ** 2    # columns are element-major
            cols = np.arange(i * k, (i + 1) * k)
            dense = _dense_patch_solve(*system(i))
            err = np.linalg.norm(basis.R[dofs][:, cols] - dense, axis=0)
            worst = max(worst, float(np.max(err / np.linalg.norm(dense, axis=0))))
    return worst


def test_bases_match_dense_patch_kkt_solve():
    """Every column of both bases equals a dense solve of its full patch KKT."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4)
    aux2 = v2_aux_spectral(g, fld, aux1, 2)
    assert _worst_patch_error(g, fld, aux1, aux2, 1) <= 1e-10


def test_exp1_centre_patch_is_a_narrow_band(monkeypatch):
    """The centre patch of experiment 1 factors only its skeleton system,
    which is a narrow band in its own row-major order: its band storage
    stays below the 703,387 fill of the full patch KKT system it replaces.
    Every patch system is a principal submatrix of the condensed skeleton
    operator S = A_SS - sum_e W_e^T Y_e, of which only the lower band is
    formed; the symmetry of A and of the element terms W_e^T Y_e covers
    all of them."""
    cfg = harness.experiment_config(1)
    g = t.build_grids(cfg.coarse_n, cfg.refine)
    fld = harness.gen_field(nx=g.n_fine, ny=g.n_fine, **cfg.field)
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    aux1 = aux_spectral(g, fld, kt, cfg.L)
    centre = (cfg.coarse_n // 2) * cfg.coarse_n + cfg.coarse_n // 2
    factored, products = [], []
    monkeypatch.setattr(spaces, "_banded_cholesky", lambda band, b:
                        factored.append(band) or _banded_cholesky(band, b))
    transposed = spaces._transposed_products
    monkeypatch.setattr(spaces, "_transposed_products", lambda W, Y:
                        products.append(transposed(W, Y)) or products[-1])
    cem_basis(g, fld, aux1, cfg.layers)
    A = aux1.A
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
    WtY = products[0][:, :, :products[0].shape[1]]
    assert np.max(np.abs(WtY - WtY.transpose(0, 2, 1))) <= 1e-12 * np.max(np.abs(WtY))
    band = factored[centre]
    n = band.shape[1]
    # 8 inner coarse lines each way of 89 DOFs, crossing at 64 coarse vertices.
    assert n == 2 * 8 * 89 - 64
    bw = band.shape[0] - 1
    assert np.any(band[bw] != 0)
    assert bw <= 2 * (2 * cfg.layers + 1) * cfg.refine
    assert (bw + 1) * n < 703_387


def _symmetric_from_band(S):
    """The sparse symmetric matrix whose lower band is the (width, n) ``S``
    (row d holds S[j + d, j]), holding only its nonzero entries."""
    d, j = np.nonzero(S)
    off = d > 0
    return sp.coo_matrix((np.r_[S[d, j], S[d, j][off]],
                          (np.r_[j + d, j[off]], np.r_[j, (j + d)[off]])),
                         shape=(S.shape[1],) * 2)


def _scipy_patch_solves(maps, S, WZ, k):
    """Oracle of ``spaces._patch_solves``: the symmetric sparse S rebuilt
    from its lower band, each patch system extracted by scipy's
    ``S[sk][:, sk]``, its lower band summed from its COO entries and solved
    once by scipy's ``cholesky_banded``/``cho_solve_banded``."""
    ns, ne = S.shape[1], len(maps.patch_skeleton)
    XS = np.zeros((ns, ne * k))
    S = _symmetric_from_band(S).tocsc()
    for i, sk in enumerate(maps.patch_skeleton):
        if not len(sk):
            continue
        valid = maps.boundary_mask[i]
        rhs = np.zeros((ns, k))
        rhs[maps.skeleton_pos[maps.boundary[i][valid]]] = -WZ[i][valid]
        rhs = rhs[sk]
        K = S[sk][:, sk].tocoo()
        n, d = K.shape[0], K.row - K.col.astype(np.int64)
        low, width = d >= 0, int(d.max(initial=0)) + 1
        band = np.bincount((d * n + K.col)[low], weights=K.data[low],
                           minlength=width * n).reshape(width, n)
        cb = sla.cholesky_banded(band, lower=True, check_finite=False)
        XS[sk, i * k:(i + 1) * k] = sla.cho_solve_banded((cb, True), rhs,
                                                         check_finite=False)
    return XS


sweep_grid = t.build_grids(4, 6)
sweep_fields = [np.where(harness.channel_geometry(24, 24, seed=2).ravel(), c, 1.0)
                for c in (1e2, 1e4, 1e6)]
sweep_fields.append(np.exp(np.random.default_rng(5).normal(0.0, 3.0, 24 * 24)))


@pytest.mark.parametrize("kappa", sweep_fields,
                         ids=["1e2", "1e4", "1e6", "lognormal"])
def test_patch_solves_bit_equal_to_scipy_extraction(monkeypatch, kappa):
    """Both bases on the contrast-sweep grid (geometry 2, and a log-normal
    field) are bit-equal to the ones built with the scipy patch oracle."""
    fld = assembly.PermeabilityField(kappa)
    built = build_spaces(sweep_grid, fld, 3, 3, 2).combined.R
    monkeypatch.setattr(spaces, "_patch_solves", _scipy_patch_solves)
    assert np.array_equal(built, build_spaces(sweep_grid, fld, 3, 3, 2).combined.R)


def _from_lower_band(band):
    """The dense symmetric matrix whose LAPACK lower band is ``band``."""
    n = band.shape[1]
    K = sum(np.diag(band[d, :n - d], -d) for d in range(len(band)))
    return K + np.tril(K, -1).T


@pytest.mark.parametrize("kappa", [sweep_fields[2], sweep_fields[3]],
                         ids=["1e6", "lognormal"])
def test_patch_solves_are_backward_stable(monkeypatch, kappa):
    """Both bases on the contrast-sweep grid (geometry 2 at 1e6, and a
    log-normal field): every patch system's one-shot solution has a
    normwise backward error within BACKWARD_TOL on its own band system."""
    solved = []

    def solve(band, b):
        solved.append((band, b, _banded_cholesky(band, b)))
        return solved[-1][2]

    monkeypatch.setattr(spaces, "_banded_cholesky", solve)
    build_spaces(sweep_grid, assembly.PermeabilityField(kappa), 3, 3, 2)
    assert len(solved) == 2 * sweep_grid.coarse_n ** 2
    for band, b, x in solved:
        K = _from_lower_band(band)
        _check_backward_error(K @ x, np.abs(K).sum(axis=0).max(), x, b)


def _sparse_lift(maps, n_dofs, Y, XS, k):
    """Oracle of the table lift in ``_localize``: the element tables
    scattered into the sparse map E from skeleton values to interior DOFs,
    as the condensation used to build it, and x = E x_S + Z_e on the
    interior DOFs, x = x_S on the skeleton.  (Its twin F, to the
    multipliers, entered only the residual checks, which every basis build
    passes.)"""
    ne, nI = maps.interior.shape
    bpos = np.where(maps.boundary_mask, maps.skeleton_pos[maps.boundary], -1)
    nb = bpos.shape[1]
    E = assembly._scatter(-Y[:, :nI, :nb], maps.interior[:, :, None],
                          bpos[:, None, :], (n_dofs, len(maps.skeleton))).tocsr()
    R = E @ XS
    R[maps.skeleton] = XS
    for e in range(ne):
        R[maps.interior[e], e * k:(e + 1) * k] += Y[e, :nI, nb:]
    return R


@pytest.mark.parametrize("case", ["sweep-1e2", "sweep-1e6", "3x3"])
def test_table_lift_matches_the_sparse_lift(monkeypatch, case):
    """Both bases, lifted by the element tables, agree within 1e-14
    relative with the sparse E lift of the same skeleton solutions."""
    if case == "3x3":
        g = t.build_grids(3, 4)
        fld, L, J, layers = channel_field(g), 2, 1, 1
    else:
        g = sweep_grid
        fld = assembly.PermeabilityField(sweep_fields[0 if case == "sweep-1e2" else 2])
        L, J, layers = 3, 3, 2
    tables, skeletons, lifted = [], [], []
    condense, patch_solves, localize = (spaces._condense, spaces._patch_solves,
                                        spaces._localize)
    monkeypatch.setattr(spaces, "_condense",
                        lambda *a: tables.append(condense(*a)) or tables[-1])
    monkeypatch.setattr(spaces, "_patch_solves",
                        lambda *a: skeletons.append(patch_solves(*a)) or skeletons[-1])
    monkeypatch.setattr(spaces, "_localize",
                        lambda *a: lifted.append((localize(*a), a[4])) or lifted[-1][0])
    build_spaces(g, fld, L, J, layers)
    assert len(lifted) == 2
    maps = g.index_maps(layers)
    for (_, Y, _), XS, (R, k) in zip(tables, skeletons, lifted):
        expect = _sparse_lift(maps, g.n_dofs, Y, XS, k)
        assert np.max(np.abs(R - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("case", ["5x5", "sweep-1e6"])
def test_moment_tables_bit_equal_to_the_gathered_blocks(case):
    """Each space's moment table: its interior columns are bit-equal to the
    product of the element blocks of its eigenvectors and its weight
    gathered from the sparse matrices, and the whole table agrees within
    1e-14 relative with the rows of (weight @ vectors)^T gathered on each
    element's closure (zero at a boundary node without a DOF)."""
    if case == "5x5":
        g = t.build_grids(5, 4)
        fld = channel_field(g)
    else:
        g, fld = sweep_grid, assembly.PermeabilityField(sweep_fields[2])
    maps = g.index_maps(0)
    interior, ni = maps.interior, maps.interior.shape[1]
    closure = np.hstack([interior, maps.boundary])
    for aux, weight in zip(aux_spaces(g, fld, 3, 2), aux_weights(g, fld)):
        X = vectors(g, aux)
        V = np.ascontiguousarray(aux.functions.transpose(0, 2, 1))
        W = weight.toarray()[interior[:, :, None], interior[:, None, :]]
        assert np.array_equal(aux.moments[:, :, :ni], V @ W)
        # Column -1 of the padded rows reads zero.
        P = np.pad((weight @ X).T.toarray(), ((0, 0), (0, 1)))
        rows = P[_columns(aux)[:, :, None], closure[:, None, :]]
        assert aux.moments.shape == rows.shape
        assert np.max(np.abs(aux.moments - rows)) <= 1e-14 * np.max(np.abs(rows))


def _assert_kernels_match_null_space(C):
    """Each stacked kernel basis spans the kernel sla.null_space finds: the
    orthogonal projectors agree within 1e-12."""
    for Ce, Ze in zip(C, spaces._kernels(C)):
        N = sla.null_space(Ce)
        assert Ze.shape == N.shape
        assert np.max(np.abs(Ze @ Ze.T - N @ N.T)) <= 1e-12


@pytest.mark.parametrize("kappa", sweep_fields[:3], ids=["1e2", "1e4", "1e6"])
def test_stacked_kernels_match_null_space(kappa):
    """On the first space's moment tables of the sweep grid."""
    aux1, _ = aux_spaces(sweep_grid, assembly.PermeabilityField(kappa), 3, 3)
    _assert_kernels_match_null_space(aux1.moments)


@settings(max_examples=20, deadline=None)
@given(ne=st.integers(1, 4), m=st.integers(1, 4), extra=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_match_null_space_on_random_rows(ne, m, extra, seed):
    C = np.random.default_rng(seed).standard_normal((ne, m, m + extra))
    _assert_kernels_match_null_space(C)


def test_rank_deficient_moment_rows_name_their_element():
    """Element 4's second moment row is its first: the second spectral
    problem names element 4 rather than solving in a larger kernel."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    moments = aux1.moments.copy()
    moments[4, 1] = moments[4, 0]
    with pytest.raises(SolveError, match="on element 4: constraint moments are "
                       "rank deficient"):
        v2_aux_spectral(g, fld, dataclasses.replace(aux1, moments=moments), 1)


def test_zero_constraint_row_names_element():
    """The second moment row of element 4 is zeroed: the error names the
    element and the row's index within it."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    moments = aux1.moments.copy()
    moments[4, 1] = 0.0
    aux1 = dataclasses.replace(aux1, moments=moments)
    with pytest.raises(SolveError, match="CEM basis solve failed on element 4: "
                       "zero constraint row 1$"):
        cem_basis(g, fld, aux1, 1)


def test_residual_failure_names_element(monkeypatch):
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    aux2 = v2_aux_spectral(g, fld, aux1, 1)
    # Solving 2K halves every skeleton solution, so the residual check must
    # reject the first patch.
    monkeypatch.setattr(spaces, "_banded_cholesky",
                        lambda band, b: _banded_cholesky(2.0 * band, b))
    with pytest.raises(SolveError,
                       match="V2 basis solve failed on element 0: column 0"):
        v2_basis(g, fld, aux1, aux2, 1)


def test_residual_failure_names_its_own_patch(monkeypatch):
    """Only element 4's patch is factored as 2K: the batched check must map
    the failing column back to element 4, not to the first element."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    factored = []

    def chol(band, b):
        factored.append(band)
        return _banded_cholesky(2.0 * band if len(factored) == 5 else band, b)

    monkeypatch.setattr(spaces, "_banded_cholesky", chol)
    with pytest.raises(SolveError,
                       match="CEM basis solve failed on element 4: column 0"):
        cem_basis(g, fld, aux1, 1)
    assert len(factored) == g.coarse_n ** 2


def test_indefinite_patch_system_names_element(monkeypatch):
    """Element 4's patch skeleton system is handed over as -K: the banded
    Cholesky rejects it at its first pivot, and the error names element 4."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    factored = []

    def chol(band, b):
        factored.append(band)
        return _banded_cholesky(-band if len(factored) == 5 else band, b)

    monkeypatch.setattr(spaces, "_banded_cholesky", chol)
    with pytest.raises(SolveError, match=r"CEM basis solve failed on element 4: "
                       r"patch skeleton system is not positive definite "
                       r"\(leading minor 1 of \d+\)"):
        cem_basis(g, fld, aux1, 1)
    assert len(factored) == 5


def test_singular_element_block_names_element_and_constraint():
    """Element 4's first moment row is overwritten by its second, so its
    constraint block is rank deficient: the element solve names element 4
    and the dependent constraint."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    moments = aux1.moments.copy()
    moments[4, 0] = moments[4, 1]
    aux1 = dataclasses.replace(aux1, moments=moments)
    with pytest.raises(SolveError, match="CEM basis solve failed on element 4: "
                       "constraint matrix is rank deficient .rank 1 of 2.; "
                       "first dependent constraint index 1"):
        cem_basis(g, fld, aux1, 1)


def _cem_localize_inputs():
    """``_localize`` arguments of the CEM basis on a 3x3 coarse grid, both
    of each element's rows targeted."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    return g, aux1.A, aux1.A_blocks, aux1.moments.copy(), aux1.moments.shape[1]


def test_localize_rejects_inconsistent_targets():
    """Element 4's first row twice, with unit targets 1 and 0 on the first
    copy and 0 and 1 on the second."""
    g, A, AD, CT, k = _cem_localize_inputs()
    CT[4, 1] = CT[4, 0]
    with pytest.raises(SolveError, match="element 4"):
        spaces._localize(g, A, AD, CT, k, 1)


def test_localize_names_a_near_duplicate_constraint_row():
    """Element 4's second row is its first up to a relative 1e-13, with
    another unit target: the one stacked element solve names element 4 and
    the row."""
    g, A, AD, CT, k = _cem_localize_inputs()
    CT[4, 1] = CT[4, 0] * (1.0 + 1e-13)
    with pytest.raises(SolveError, match="on element 4: constraint matrix is rank "
                       "deficient .rank 1 of 2.; first dependent constraint index 1"):
        spaces._localize(g, A, AD, CT, k, 1)


def test_build_spaces_gathers_stiffness_blocks_once(monkeypatch):
    """Both spectral problems and both condensations share one sum of the
    stiffness's element blocks; the partition of unity sums its own."""
    sum_blocks, summed = assembly.element_blocks, []

    def blocks(grid, weights, ref, cols):
        summed.append(ref)
        return sum_blocks(grid, weights, ref, cols)

    monkeypatch.setattr(assembly, "element_blocks", blocks)
    solved = []
    for name in ("aux_spectral", "v2_aux_spectral"):
        solve = getattr(spaces, name)
        monkeypatch.setattr(spaces, name, lambda *a, solve=solve:
                            solved.append(solve(*a)) or solved[-1])
    g = t.build_grids(3, 4)
    build_spaces(g, channel_field(g), 2, 1, 1)
    assert sum(ref is assembly._STIFF_REF for ref in summed) == 2
    aux1, aux2 = solved
    assert aux1.A_blocks is aux2.A_blocks


@settings(max_examples=8, deadline=None)
@given(coarse_n=st.integers(3, 4), refine=st.integers(3, 5),
       contrast=st.sampled_from([1e2, 1e4, 1e6]), layers=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_bases_match_dense_kkt_on_random_binary_fields(coarse_n, refine, contrast,
                                                       layers, seed):
    """Covers layers = 0 (no skeleton) and patches clipped at the boundary."""
    g = t.build_grids(coarse_n, refine)
    mask = np.random.default_rng(seed).random(g.n_cells) < 0.3
    fld = assembly.PermeabilityField(np.where(mask, contrast, 1.0))
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    aux1 = aux_spectral(g, fld, kt, 2)
    aux2 = v2_aux_spectral(g, fld, aux1, 1)
    assert _worst_patch_error(g, fld, aux1, aux2, layers) <= 1e-9


@settings(max_examples=6, deadline=None)
@given(coarse_n=st.integers(3, 4), refine=st.integers(3, 5),
       contrast=st.sampled_from([1e2, 1e4, 1e6]),
       seed=st.integers(0, 2**32 - 1))
def test_basis_contracts_on_random_binary_fields(coarse_n, refine, contrast, seed):
    g = t.build_grids(coarse_n, refine)
    mask = np.random.default_rng(seed).random(g.n_cells) < 0.3
    fld = assembly.PermeabilityField(np.where(mask, contrast, 1.0))
    b1, b2 = coarse_bases(build_spaces(g, fld, 2, 1, 1))
    aux1, aux2 = aux_spaces(g, fld, 2, 1)
    V1, V2 = vectors(g, aux1), vectors(g, aux2)
    S, M = aux_weights(g, fld)
    # Both bases take unit moments as their targets: each auxiliary space
    # must be orthonormal in its weight.
    for W, V in ((S, V1), (M, V2)):
        gram = (V.T @ (W @ V)).toarray()
        assert np.max(np.abs(gram - np.eye(V.shape[1]))) <= 1e-12
    G1 = V1.T @ (S @ b1.R)
    assert np.max(np.abs(G1 - np.eye(V1.shape[1]))) <= 1e-9
    assert np.max(np.abs(V1.T @ (S @ b2.R))) <= 1e-9
    G2 = V2.T @ (M @ b2.R)
    XtMX = (V2.T @ (M @ V2)).toarray()
    assert np.max(np.abs(G2 - XtMX)) <= 1e-9


# ------------------------------------------------------------- combined / cache

def test_bases_are_column_views_of_the_combined_basis():
    g = t.build_grids(3, 4)
    fld = channel_field(g)
    cs = build_spaces(g, fld, 2, 1, 1)
    R, n1 = cs.combined.R, cs.combined.n1
    basis1, basis2 = coarse_bases(cs)
    for basis in (basis1, basis2):
        assert basis.R.base is R and np.shares_memory(basis.R, R)
    assert np.array_equal(basis1.R, R[:, :n1])
    assert np.array_equal(basis2.R, R[:, n1:])
    assert (basis1.n1, basis2.n1, n1) == (basis1.n, 0, basis1.n)
    cem = cem_basis(g, fld, aux_spaces(g, fld, 2, 1)[0], 1).R
    assert np.max(np.abs(basis1.R - cem)) <= 1e-12 * np.max(np.abs(cem))


def _placed(X, offset):
    """A copy of X starting ``offset`` elements into a fresh buffer."""
    out = np.empty(X.size + offset)[offset:].reshape(X.shape)
    out[...] = X
    return out


def test_condensed_target_products_do_not_depend_on_placement(monkeypatch):
    """W_e^T Z_e of both bases (two targets per element, then one) is
    bit-equal for the same stacks placed 8 bytes further into memory."""
    stacks = []
    products = spaces._transposed_products
    monkeypatch.setattr(spaces, "_transposed_products",
                        lambda W, Y: stacks.append((W, Y)) or products(W, Y))
    g = t.build_grids(3, 4)
    build_spaces(g, channel_field(g), 2, 1, 1)
    assert [Y.shape[2] - W.shape[2] for W, Y in stacks] == [2, 1]
    for W, Y in stacks:
        nb = W.shape[2]
        WZ = [products(_placed(W, k), _placed(Y, k))[:, :, nb:] for k in (0, 1)]
        assert np.array_equal(WZ[0], WZ[1])


def test_lift_does_not_depend_on_placement(monkeypatch):
    """With two columns per chunk, the V2 basis of a 3x3 grid at J = 1 (an
    odd ne * k) ends on a one-column chunk: R is bit-equal when the element
    tables it is lifted by sit 8 bytes further into memory."""
    monkeypatch.setattr(spaces, "CHECK_COLUMNS", 2)
    g = t.build_grids(3, 4)
    fld = channel_field(g)
    _, basis2 = coarse_bases(build_spaces(g, fld, 2, 1, 1))
    aux1, aux2 = aux_spaces(g, fld, 2, 1)
    condense = spaces._condense

    def placed(*args):
        S, Y, WZ = condense(*args)
        return S, _placed(Y, 1), WZ

    monkeypatch.setattr(spaces, "_condense", placed)
    assert np.array_equal(v2_basis(g, fld, aux1, aux2, 1).R, basis2.R)


def test_combined_basis_full_rank():
    g = t.build_grids(5, 4)
    cs = build_spaces(g, channel_field(g), 3, 2, 2)
    M, both = cs.M, cs.combined
    Mr = both.R.T @ (M @ both.R)
    w = np.linalg.eigvalsh(0.5 * (Mr + Mr.T))
    assert w.min() > 1e-10 * w.max()
    assert both.n1 == coarse_bases(cs)[0].n == both.n - g.coarse_n ** 2 * 2


# ---------------------------------------------------------- skeleton band

def _scatter_condensed(A, WtY, maps, bpos):
    """Oracle of ``spaces._condense``'s band: the skeleton operator as a CSR
    sum, A_SS + sum_e -W_e^T Y_e scattered by ``assembly._scatter``."""
    A_SS = A[maps.skeleton][:, maps.skeleton]
    nb = bpos.shape[1]
    return (A_SS + assembly._scatter(-WtY[:, :, :nb], bpos[:, :, None],
                                     bpos[:, None, :], A_SS.shape)).tocsr()


@pytest.mark.parametrize("case", ["0-1e2", "0-1e6", "2-1e2", "2-1e6", "7-1e2",
                                  "7-1e6", "exp1"])
def test_condensed_band_is_the_lower_band_of_the_sparse_sum(monkeypatch, case):
    """Every condensation's band equals the lower band of the sparse sum
    A_SS + sum_e -W_e^T Y_e within 4 eps max|S|, on sweep geometries 0, 2
    and 7 (both bases) and on experiment 1's grid (the CEM basis).  They are
    not bit-equal: scipy sums a COO row of more than 16 entries in no fixed
    order (see ``assembly._scatter``)."""
    calls, products = [], []
    condense, transposed = spaces._condense, spaces._transposed_products
    monkeypatch.setattr(spaces, "_condense", lambda *a:
                        calls.append((a, condense(*a))) or calls[-1][1])
    monkeypatch.setattr(spaces, "_transposed_products", lambda W, Y:
                        products.append(transposed(W, Y)) or products[-1])
    if case == "exp1":
        cfg = harness.experiment_config(1)
        g = t.build_grids(cfg.coarse_n, cfg.refine)
        fld = harness.gen_field(nx=g.n_fine, ny=g.n_fine, **cfg.field)
        kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
        cem_basis(g, fld, aux_spectral(g, fld, kt, cfg.L), cfg.layers)
    else:
        geometry, contrast = case.split("-")
        mask = harness.channel_geometry(24, 24, seed=int(geometry))
        fld = assembly.PermeabilityField(np.where(mask.ravel(), float(contrast), 1.0))
        build_spaces(t.build_grids(4, 6), fld, 3, 3, 2)
    assert len(calls) == len(products) == (1 if case == "exp1" else 2)
    for ((maps, A, *_, bpos), (S, _, _)), WtY in zip(calls, products):
        L = sp.tril(_scatter_condensed(A, WtY, maps, bpos)).tocoo()
        d = L.row - L.col
        assert d.max() < S.shape[0]
        expect = np.zeros_like(S)
        expect[d, L.col] = L.data
        assert np.max(np.abs(S - expect)) <= 4 * np.finfo(float).eps * np.max(np.abs(S))


def test_a_cancelled_band_entry_still_matches_the_oracle(monkeypatch):
    """The patch solves of a skeleton band whose smallest off-diagonal entry
    in patch 5 is zero (as when it cancels to exactly zero) still match
    their scipy oracle bit for bit."""
    g = t.build_grids(4, 6)
    calls, solves = [], spaces._patch_solves
    monkeypatch.setattr(spaces, "_patch_solves",
                        lambda *a: calls.append(a) or solves(*a))
    build_spaces(g, assembly.PermeabilityField(sweep_fields[2]), 3, 3, 2)
    maps, S, WZ, k = calls[-1]
    sk = maps.patch_skeleton[5]
    d, j = np.nonzero(S)
    inside = (d > 0) & np.isin(j, sk) & np.isin(j + d, sk)
    at = np.flatnonzero(inside)[np.argmin(np.abs(S[d[inside], j[inside]]))]
    S2 = S.copy()
    S2[d[at], j[at]] = 0.0
    assert np.count_nonzero(S2) == np.count_nonzero(S) - 1
    assert np.array_equal(spaces._patch_solves(maps, S2, WZ, k),
                          _scipy_patch_solves(maps, S2, WZ, k))


@pytest.mark.parametrize("geometry", [0, 2, 7])
def test_repeated_builds_on_one_grid_equal_a_build_on_a_fresh_grid(monkeypatch,
                                                                   geometry):
    """The contrast sweep (1e2, 1e4, 1e6) gives bit-equal bases and equal
    rows on its first and second call on one grid and on a fresh grid; so
    does a one-layer build on the used grid."""
    mask = harness.channel_geometry(24, 24, seed=geometry)
    g = t.build_grids(4, 6)
    built, build = [], spaces.build_spaces
    monkeypatch.setattr(spaces, "build_spaces",
                        lambda *a: built.append(build(*a)) or built[-1])
    rows = [stability.contrast_sweep(grid, mask, (1e2, 1e4, 1e6), 0.9, layers=2)
            for grid in (g, g, t.build_grids(4, 6))]
    assert rows[0] == rows[1] == rows[2]
    for first, second, fresh in zip(built[:3], built[3:6], built[6:]):
        assert np.array_equal(first.combined.R, second.combined.R)
        assert np.array_equal(first.combined.R, fresh.combined.R)
    fld = assembly.PermeabilityField(np.where(mask.ravel(), 1e4, 1.0))
    assert np.array_equal(build(g, fld, 3, 3, 1).combined.R,
                          build(t.build_grids(4, 6), fld, 3, 3, 1).combined.R)


def test_repeated_builds_on_one_grid_equal_a_build_on_a_fresh_grid_on_the_reduced_sweep_grid():
    """Both bases on the reduced-sweep grid (10x10 coarse, refine 5, L = 3,
    J = 1, two layers): bit-equal on the first and second build on one grid
    and on a fresh grid."""
    g = t.build_grids(10, 5)
    fld = harness.gen_field("channels", nx=50, ny=50, contrast=1e5, seed=0)
    first, second, fresh = (build_spaces(grid, fld, 3, 1, 2).combined.R
                            for grid in (g, g, t.build_grids(10, 5)))
    assert np.array_equal(first, second) and np.array_equal(first, fresh)


def test_a_grid_holds_only_its_index_maps_and_mass():
    """After a contrast sweep and a one-layer build, the grid holds its two
    counts, its cached maps and its mass matrix, and nothing else."""
    g = t.build_grids(4, 6)
    mask = harness.channel_geometry(24, 24, seed=0)
    stability.contrast_sweep(g, mask, (1e2, 1e6), 0.9, layers=2)
    build_spaces(g, assembly.PermeabilityField(sweep_fields[0]), 3, 3, 1)
    assert set(g.__dict__) == {"coarse_n", "refine", "_geometry", "_element_maps",
                               "_index_maps", "_mass"}

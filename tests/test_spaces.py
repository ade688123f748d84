"""Tests for the auxiliary spectral problems and the two localized coarse
bases."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import tfmultiscale as t
from tfmultiscale import assembly, harness, spaces
from tfmultiscale.linalg import SolveError, _banded_cholesky
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


# ----------------------------------------------------------------- aux_spectral

def test_aux_eigenvalues_ascending_nonnegative():
    _, _, _, aux1 = setup_spaces()
    for vals in aux1.values:
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] >= -1e-10


def test_aux_s_orthonormal_per_element():
    g, _, _, aux1 = setup_spaces()
    G = (aux1.vectors.T @ (aux1.weight @ aux1.vectors)).toarray()
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
    A = assembly.assemble(g, fld, "stiffness")
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    S = assembly.assemble(g, kt, "weighted_mass")
    keep = np.ones(g.n_dofs)
    keep[g.index_maps(0).interior[4]] = 0.0
    S = sp.diags(keep) @ S @ sp.diags(keep)
    with pytest.raises(SolveError,
                       match="on element 4: generalized eigenproblem failed"):
        spaces._local_eigs(g, A, S, 2)


# -------------------------------------------------------------------- cem_basis

def test_cem_constraint_gram_identity():
    g, fld, _, aux1 = setup_spaces()
    b1 = cem_basis(g, fld, aux1, 2)
    G = aux1.vectors.T @ (aux1.weight @ b1.R)     # s-moments of each basis column
    expect = np.eye(aux1.total)
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
    for j in range(aux2.total):
        xi = aux2.vectors[:, j].toarray().ravel()
        coef = aux1.vectors.T @ (aux1.weight @ xi)
        assert np.max(np.abs(coef)) <= 1e-9


def test_v2_aux_ascending_l2_orthonormal():
    g, fld, _, aux1 = setup_spaces()
    aux2 = v2_aux_spectral(g, fld, aux1, 3)
    for vals in aux2.values:
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] >= -1e-10
    G = (aux2.vectors.T @ (aux2.weight @ aux2.vectors)).toarray()
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
    # s-orthogonality to every aux1 function
    G1 = aux1.vectors.T @ (aux1.weight @ b2.R)
    assert np.max(np.abs(G1)) <= 1e-8
    # L2 moments match those of the target eigenfunctions
    M = aux2.weight
    G2 = aux2.vectors.T @ (M @ b2.R)
    XtMX = (aux2.vectors.T @ (M @ aux2.vectors)).toarray()
    for j in range(b2.n):   # V2 column j targets aux2 column j
        assert np.max(np.abs(G2[:, j] - XtMX[:, j])) <= 1e-8


def test_v2_nearly_a_orthogonal_to_cem():
    g = t.build_grids(5, 4)
    cs = build_spaces(g, channel_field(g), 3, 2, 3)
    A, b1, b2 = cs.A, cs.basis1, cs.basis2
    cross = b2.R.T @ (A @ b1.R)
    na = np.sqrt(np.einsum("ij,ij->j", b2.R, A @ b2.R))
    nb = np.sqrt(np.einsum("ij,ij->j", b1.R, A @ b1.R))
    assert np.max(np.abs(cross) / np.outer(na, nb)) <= 0.1


# ------------------------------------------------------------ patch solves

def _cem_patch_system(g, fld, aux1, i, layers):
    """Stiffness, constraints and target moments of element i's CEM patch."""
    A = assembly.assemble(g, fld, "stiffness")
    maps = g.index_maps(layers)
    dofs, elements = maps.patch_dofs[i], np.flatnonzero(maps.in_patch[i])
    acols = aux1.columns[elements].ravel()
    SPsi = (aux1.weight @ aux1.vectors).tocsc()
    C = SPsi[dofs][:, acols].T.tocsr()
    own = np.flatnonzero(np.isin(acols, aux1.columns[i]))
    G = (aux1.vectors[:, acols].T @ SPsi[:, acols[own]]).toarray()
    return A[dofs][:, dofs], C, G


def _v2_patch_system(g, fld, aux1, aux2, i, layers):
    """Stiffness, constraints and target moments of element i's V2 patch."""
    A = assembly.assemble(g, fld, "stiffness")
    maps = g.index_maps(layers)
    dofs, elements = maps.patch_dofs[i], np.flatnonzero(maps.in_patch[i])
    a1, a2 = aux1.columns[elements].ravel(), aux2.columns[elements].ravel()
    MXi = (aux2.weight @ aux2.vectors).tocsc()
    C = sp.vstack([(aux1.weight @ aux1.vectors)[dofs][:, a1].T, MXi[dofs][:, a2].T]).tocsr()
    own = np.flatnonzero(np.isin(a2, aux2.columns[i]))
    G2 = (aux2.vectors[:, a2].T @ MXi[:, a2[own]]).toarray()
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
    stays below the 703,387 fill of the full patch KKT system it replaces."""
    cfg = harness.experiment_config(1)
    g = t.build_grids(cfg.coarse_n, cfg.refine)
    fld = harness._field_from_config(cfg)
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    aux1 = aux_spectral(g, fld, kt, cfg.L)
    centre = (cfg.coarse_n // 2) * cfg.coarse_n + cfg.coarse_n // 2
    factored = []
    monkeypatch.setattr(spaces, "_banded_cholesky",
                        lambda K: factored.append(K) or _banded_cholesky(K))
    cem_basis(g, fld, aux1, cfg.layers)
    K = factored[centre]
    n = K.shape[0]
    # 8 inner coarse lines each way of 89 DOFs, crossing at 64 coarse vertices.
    assert n == 2 * 8 * 89 - 64
    assert abs(K - K.T).max() <= 1e-12 * abs(K).max()
    rows, cols = K.nonzero()
    bw = int((rows - cols).max())
    assert bw <= 2 * (2 * cfg.layers + 1) * cfg.refine
    assert (bw + 1) * n < 703_387


def test_zero_constraint_row_names_element():
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    keep = np.ones(aux1.total)
    keep[0] = 0.0                      # first aux function of element 0
    aux1 = dataclasses.replace(aux1, vectors=(aux1.vectors @ sp.diags(keep)).tocsc())
    with pytest.raises(SolveError,
                       match="CEM basis solve failed on element 0: zero constraint row"):
        cem_basis(g, fld, aux1, 1)


def test_residual_failure_names_element(monkeypatch):
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    aux2 = v2_aux_spectral(g, fld, aux1, 1)
    # A factorization of 2K leaves a residual that one refinement step
    # cannot remove, so the residual check must reject the first patch.
    monkeypatch.setattr(spaces, "_banded_cholesky",
                        lambda K: _banded_cholesky(2.0 * K))
    with pytest.raises(SolveError,
                       match="V2 basis solve failed on element 0: column 0"):
        v2_basis(g, fld, aux1, aux2, 1)


def test_residual_failure_names_its_own_patch(monkeypatch):
    """Only element 4's patch is factored as 2K: the batched check must map
    the failing column back to element 4, not to the first element."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    factored = []

    def chol(K):
        factored.append(K)
        return _banded_cholesky(2.0 * K if len(factored) == 5 else K)

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

    def chol(K):
        factored.append(K)
        return _banded_cholesky(-K if len(factored) == 5 else K)

    monkeypatch.setattr(spaces, "_banded_cholesky", chol)
    with pytest.raises(SolveError, match=r"CEM basis solve failed on element 4: "
                       r"patch skeleton system is not positive definite "
                       r"\(leading minor 1 of \d+\)"):
        cem_basis(g, fld, aux1, 1)
    assert len(factored) == 5


def test_singular_element_block_names_element_and_constraint():
    """Element 4's first aux function is overwritten by its second, so the
    LU of its saddle block meets an exactly zero pivot: the element solve
    names element 4 and the dependent constraint."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    V = aux1.vectors.tolil()
    V[:, 8] = V[:, 9]
    aux1 = dataclasses.replace(aux1, vectors=V.tocsc())
    with pytest.raises(SolveError, match="CEM basis solve failed on element 4: "
                       "constraint matrix is rank deficient .rank 1 of 2.; "
                       "first dependent constraint index 1"):
        cem_basis(g, fld, aux1, 1)


def _cem_localize_inputs():
    """``_localize`` arguments of the CEM basis on a 3x3 coarse grid, both
    of each element's rows targeted."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    SPsi = (aux1.weight @ aux1.vectors).tocsc()
    rows = np.arange(aux1.total).reshape(g.coarse_n ** 2, -1)
    return g, aux1.A, aux1.A_blocks, SPsi.T.tocsr(), rows, rows.shape[1]


def test_localize_rejects_inconsistent_targets():
    """Element 4's first row twice, with unit targets 1 and 0 on the first
    copy and 0 and 1 on the second."""
    g, A, AD, C, rows, k = _cem_localize_inputs()
    first, second = rows[4]
    order = np.arange(C.shape[0])
    order[second] = first
    with pytest.raises(SolveError, match="element 4"):
        spaces._localize(g, A, AD, C[order], rows, k, 1)


def test_localize_names_a_near_duplicate_constraint_row(monkeypatch):
    """Element 4's second row is its first up to a relative 1e-13, with
    another unit target: the element solve names element 4 and the row,
    also when element 4 is block 1 of the second stack of three elements."""
    monkeypatch.setattr(spaces, "SOLVE_ELEMENTS", 3)
    g, A, AD, C, rows, k = _cem_localize_inputs()
    first, second = rows[4]
    C = C.tolil()
    C[second] = C[first] * (1.0 + 1e-13)
    with pytest.raises(SolveError, match="on element 4: constraint matrix is rank "
                       "deficient .rank 1 of 2.; first dependent constraint index 1"):
        spaces._localize(g, A, AD, C.tocsr(), rows, k, 1)


def test_build_spaces_gathers_stiffness_blocks_once(monkeypatch):
    """Both spectral problems and both condensations share one gather of the
    stiffness's element blocks."""
    gather, gathered = spaces._blocks, []

    def blocks(X, rows, cols):
        gathered.append(X)
        return gather(X, rows, cols)

    monkeypatch.setattr(spaces, "_blocks", blocks)
    g = t.build_grids(3, 4)
    cs = build_spaces(g, channel_field(g), 2, 1, 1)
    assert sum(X is cs.A for X in gathered) == 1
    assert cs.aux1.A_blocks is cs.aux2.A_blocks


def test_condensation_chunks_leave_the_bases_unchanged(monkeypatch):
    g = t.build_grids(3, 4)
    fld = channel_field(g)
    whole = build_spaces(g, fld, 2, 1, 1).combined.R
    monkeypatch.setattr(spaces, "SOLVE_ELEMENTS", 2)
    chunked = build_spaces(g, fld, 2, 1, 1).combined.R
    assert np.max(np.abs(chunked - whole)) <= 1e-12 * np.max(np.abs(whole))


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
    cs = build_spaces(g, fld, 2, 1, 1)
    aux1, aux2, b1, b2 = cs.aux1, cs.aux2, cs.basis1, cs.basis2
    # Both bases take unit moments as their targets: each auxiliary space
    # must be orthonormal in its weight.
    for aux in (aux1, aux2):
        gram = (aux.vectors.T @ (aux.weight @ aux.vectors)).toarray()
        assert np.max(np.abs(gram - np.eye(aux.total))) <= 1e-12
    G1 = aux1.vectors.T @ (aux1.weight @ b1.R)
    assert np.max(np.abs(G1 - np.eye(aux1.total))) <= 1e-9
    assert np.max(np.abs(aux1.vectors.T @ (aux1.weight @ b2.R))) <= 1e-9
    G2 = aux2.vectors.T @ (aux2.weight @ b2.R)
    XtMX = (aux2.vectors.T @ (aux2.weight @ aux2.vectors)).toarray()
    assert np.max(np.abs(G2 - XtMX)) <= 1e-9


# ------------------------------------------------------------- combined / cache

def test_bases_are_column_views_of_the_combined_basis():
    g = t.build_grids(3, 4)
    fld = channel_field(g)
    cs = build_spaces(g, fld, 2, 1, 1)
    R, n1 = cs.combined.R, cs.combined.n1
    for basis in (cs.basis1, cs.basis2):
        assert basis.R.base is R and np.shares_memory(basis.R, R)
    assert np.array_equal(cs.basis1.R, R[:, :n1])
    assert np.array_equal(cs.basis2.R, R[:, n1:])
    assert (cs.basis1.n1, cs.basis2.n1, n1) == (cs.basis1.n, 0, cs.basis1.n)
    cem = cem_basis(g, fld, cs.aux1, 1).R
    assert np.max(np.abs(cs.basis1.R - cem)) <= 1e-12 * np.max(np.abs(cem))


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


def test_combined_basis_full_rank():
    g = t.build_grids(5, 4)
    cs = build_spaces(g, channel_field(g), 3, 2, 2)
    M, both = cs.M, cs.combined
    Mr = both.R.T @ (M @ both.R)
    w = np.linalg.eigvalsh(0.5 * (Mr + Mr.T))
    assert w.min() > 1e-10 * w.max()
    assert both.n1 == cs.basis1.n == both.n - g.coarse_n ** 2 * 2


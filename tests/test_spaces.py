"""Tests for the auxiliary spectral problems, the projection, and the two
localized coarse bases."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import tfmultiscale as t
from tfmultiscale import assembly, harness, spaces
from tfmultiscale.grid import oversample
from tfmultiscale.linalg import SolveError, _sparse_lu
from tfmultiscale.spaces import (aux_spectral, cem_basis, combine,
                                 field_checksum, load_basis, project_pi,
                                 save_basis, v2_aux_spectral, v2_basis)


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
    G = (aux1.Psi.T @ (aux1.S @ aux1.Psi)).toarray()
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


# ------------------------------------------------------------------- project_pi

def test_pi_fixes_range():
    _, _, _, aux1 = setup_spaces()
    v = aux1.Psi[:, 4].toarray().ravel()
    assert np.allclose(project_pi(aux1, v), v, atol=1e-10)


def test_pi_annihilates_s_orthogonal():
    g, _, _, aux1 = setup_spaces()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(g.n_dofs)
    w = v - project_pi(aux1, v)          # s-orthogonal complement part
    coef = aux1.Psi.T @ (aux1.S @ w)
    assert np.max(np.abs(coef)) <= 1e-9 * max(np.linalg.norm(v), 1)
    assert np.allclose(project_pi(aux1, w), 0.0, atol=1e-8)


def test_pi_idempotent():
    g, _, _, aux1 = setup_spaces()
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.standard_normal(g.n_dofs)
        pv = project_pi(aux1, v)
        assert np.max(np.abs(project_pi(aux1, pv) - pv)) <= 1e-10 * max(np.max(np.abs(pv)), 1)


# -------------------------------------------------------------------- cem_basis

def test_cem_constraint_gram_identity():
    g, fld, _, aux1 = setup_spaces()
    b1 = cem_basis(g, fld, aux1, 2)
    G = aux1.Psi.T @ (aux1.S @ b1.R)     # s-moments of each basis column
    expect = np.eye(aux1.total)
    assert np.max(np.abs(G - expect)) <= 1e-8


def test_cem_support_inside_patch():
    from tfmultiscale.grid import oversample
    g, fld, _, aux1 = setup_spaces()
    layers = 1
    b1 = cem_basis(g, fld, aux1, layers)
    for j in range(b1.n):
        patch = oversample(g, int(b1.col_elem[j]), layers)
        outside = np.setdiff1d(np.arange(g.n_dofs), patch.local_dofs)
        assert np.allclose(b1.R[outside, j], 0.0)


def test_cem_energy_decay_to_global():
    """Localized minimizers converge to the whole-domain solve as layers grow."""
    g, fld, _, aux1 = setup_spaces(coarse_n=5, refine=4)
    A = assembly.assemble(g, fld, "stiffness")
    i = 12  # center element: layers=2 covers the whole 5x5 coarse grid
    bases = {k: cem_basis(g, fld, aux1, k) for k in (0, 1, 2)}

    def col(b):
        j = np.flatnonzero((b.col_elem == i) & (b.col_index == 0))[0]
        return b.R[:, j]

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
        xi = aux2.Xi[:, j].toarray().ravel()
        coef = aux1.Psi.T @ (aux1.S @ xi)
        assert np.max(np.abs(coef)) <= 1e-9


def test_v2_aux_ascending_l2_orthonormal():
    g, fld, _, aux1 = setup_spaces()
    aux2 = v2_aux_spectral(g, fld, aux1, 3)
    for vals in aux2.values:
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] >= -1e-10
    G = (aux2.Xi.T @ (aux2.M @ aux2.Xi)).toarray()
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


def test_v2_aux_too_many_requested():
    g, fld, _, aux1 = setup_spaces(coarse_n=2, refine=3, L=3)
    with pytest.raises(SolveError, match="element"):
        v2_aux_spectral(g, fld, aux1, 10)


def test_v2_basis_constraints():
    g, fld, _, aux1 = setup_spaces()
    aux2 = v2_aux_spectral(g, fld, aux1, 2)
    b2 = v2_basis(g, fld, aux1, aux2, 2)
    # s-orthogonality to every aux1 function
    G1 = aux1.Psi.T @ (aux1.S @ b2.R)
    assert np.max(np.abs(G1)) <= 1e-8
    # L2 moments match those of the target eigenfunctions
    M = aux2.M
    G2 = aux2.Xi.T @ (M @ b2.R)
    XtMX = (aux2.Xi.T @ (M @ aux2.Xi)).toarray()
    for j in range(b2.n):
        i = int(b2.col_elem[j])
        jj = int(b2.col_index[j])
        target_col = np.flatnonzero((aux2.col_elem == i) & (aux2.col_index == jj))[0]
        assert np.max(np.abs(G2[:, j] - XtMX[:, target_col])) <= 1e-8


def test_v2_nearly_a_orthogonal_to_cem():
    g, fld, _, aux1 = setup_spaces(coarse_n=5, refine=4)
    A = assembly.assemble(g, fld, "stiffness")
    aux2 = v2_aux_spectral(g, fld, aux1, 2)
    b1 = cem_basis(g, fld, aux1, 3)
    b2 = v2_basis(g, fld, aux1, aux2, 3)
    cross = b2.R.T @ (A @ b1.R)
    na = np.sqrt(np.einsum("ij,ij->j", b2.R, A @ b2.R))
    nb = np.sqrt(np.einsum("ij,ij->j", b1.R, A @ b1.R))
    assert np.max(np.abs(cross) / np.outer(na, nb)) <= 0.1


# ------------------------------------------------------- batched patch solves

def test_kkt_multi_matches_dense_kkt_solve(monkeypatch):
    """Every column of the batched solve equals a dense solve of the full KKT."""
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4)
    aux2 = v2_aux_spectral(g, fld, aux1, 2)
    calls = []
    batched = spaces._kkt_multi

    def recording(Ap, C, G):
        X = batched(Ap, C, G)
        calls.append((Ap, C, G, X))
        return X

    monkeypatch.setattr(spaces, "_kkt_multi", recording)
    cem_basis(g, fld, aux1, 1)
    v2_basis(g, fld, aux1, aux2, 1)
    assert len(calls) == 2 * g.n_coarse_elems
    for Ap, C, G, X in calls:
        nd, m = Ap.shape[0], C.shape[0]
        K = np.block([[Ap.toarray(), C.T.toarray()], [C.toarray(), np.zeros((m, m))]])
        rhs = np.vstack([np.zeros((nd, G.shape[1])), G])
        dense = np.linalg.solve(K, rhs)[:nd]
        err = np.linalg.norm(X - dense, axis=0)
        assert np.all(err <= 1e-10 * np.linalg.norm(dense, axis=0))


def _cem_patch_system(g, fld, aux1, i, layers):
    """Stiffness, constraints and target moments of element i's CEM patch."""
    A = assembly.assemble(g, fld, "stiffness")
    patch = oversample(g, i, layers)
    dofs = patch.local_dofs
    acols = aux1.columns_in(patch.elements)
    SPsi = (aux1.S @ aux1.Psi).tocsc()
    C = SPsi[dofs][:, acols].T.tocsr()
    own = np.flatnonzero(aux1.col_elem[acols] == i)
    G = (aux1.Psi[:, acols].T @ SPsi[:, acols[own]]).toarray()
    return A[dofs][:, dofs], C, G


def test_kkt_ordering_reduces_fill_on_exp1_patch(monkeypatch):
    """The centre patch KKT of experiment 1 fills less than under COLAMD."""
    cfg = harness.experiment_config(1)
    g = t.build_grids(cfg.coarse_n, cfg.refine)
    fld = harness._field_from_config(cfg)
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    aux1 = aux_spectral(g, fld, kt, cfg.L)
    centre = (cfg.coarse_n // 2) * cfg.coarse_n + cfg.coarse_n // 2
    factored = []
    monkeypatch.setattr(spaces, "_sparse_lu",
                        lambda K: factored.append(K) or _sparse_lu(K))
    spaces._kkt_multi(*_cem_patch_system(g, fld, aux1, centre, cfg.layers))
    K = factored[0]
    assert K.shape[0] > 8000
    lu = _sparse_lu(K)
    colamd = spla.splu(K, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_zero_constraint_row_names_element():
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    keep = np.ones(aux1.total)
    keep[0] = 0.0                      # first aux function of element 0
    aux1.Psi = (aux1.Psi @ sp.diags(keep)).tocsc()
    with pytest.raises(SolveError,
                       match="CEM basis solve failed on element 0: zero constraint row"):
        cem_basis(g, fld, aux1, 1)


def test_residual_failure_names_element(monkeypatch):
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    aux2 = v2_aux_spectral(g, fld, aux1, 1)
    # A factorization of 2K leaves a residual that one refinement step
    # cannot remove, so the residual check must reject the first patch.
    monkeypatch.setattr(spaces, "_sparse_lu", lambda K: _sparse_lu(2.0 * K))
    with pytest.raises(SolveError,
                       match="V2 basis solve failed on element 0: column 0"):
        v2_basis(g, fld, aux1, aux2, 1)


def _small_patch_system():
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=4, L=2)
    Ap, C, _ = _cem_patch_system(g, fld, aux1, 4, 1)
    return Ap, C


def test_kkt_multi_rejects_inconsistent_moments():
    Ap, C = _small_patch_system()
    C2 = sp.vstack([C[:1], C[:1]]).tocsr()   # one constraint, two targets
    G = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SolveError):
        spaces._kkt_multi(Ap, C2, G)


def test_kkt_multi_rejects_nonfinite_moments():
    Ap, C = _small_patch_system()
    G = np.ones((C.shape[0], 3))
    G[0, 1] = np.nan
    with pytest.raises(SolveError, match="column 1"):
        spaces._kkt_multi(Ap, C, G)


@settings(max_examples=6, deadline=None)
@given(coarse_n=st.integers(3, 4), refine=st.integers(3, 5),
       contrast=st.sampled_from([1e2, 1e4, 1e6]),
       seed=st.integers(0, 2**32 - 1))
def test_basis_contracts_on_random_binary_fields(coarse_n, refine, contrast, seed):
    g = t.build_grids(coarse_n, refine)
    mask = np.random.default_rng(seed).random(g.n_cells) < 0.3
    fld = assembly.PermeabilityField(np.where(mask, contrast, 1.0))
    kt = assembly.kappa_tilde(fld, assembly.msfem_partition(g, fld))
    aux1 = aux_spectral(g, fld, kt, 2)
    aux2 = v2_aux_spectral(g, fld, aux1, 1)
    b1 = cem_basis(g, fld, aux1, 1)
    b2 = v2_basis(g, fld, aux1, aux2, 1)
    G1 = aux1.Psi.T @ (aux1.S @ b1.R)
    assert np.max(np.abs(G1 - np.eye(aux1.total))) <= 1e-9
    assert np.max(np.abs(aux1.Psi.T @ (aux1.S @ b2.R))) <= 1e-9
    G2 = aux2.Xi.T @ (aux2.M @ b2.R)
    XtMX = (aux2.Xi.T @ (aux2.M @ aux2.Xi)).toarray()
    assert np.max(np.abs(G2 - XtMX)) <= 1e-9


# ------------------------------------------------------------- combined / cache

def test_combined_basis_full_rank():
    g, fld, _, aux1 = setup_spaces()
    M = assembly.assemble(g, None, "mass")
    aux2 = v2_aux_spectral(g, fld, aux1, 2)
    both = combine(cem_basis(g, fld, aux1, 2), v2_basis(g, fld, aux1, aux2, 2))
    Mr = both.R.T @ (M @ both.R)
    w = np.linalg.eigvalsh(0.5 * (Mr + Mr.T))
    assert w.min() > 1e-10 * w.max()
    assert np.all(both.tags[: both.n - aux1.grid.n_coarse_elems * 2] == "cem")


def test_basis_cache_round_trip(tmp_path):
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=3, L=2, J=1)
    b1 = cem_basis(g, fld, aux1, 1)
    p = tmp_path / "basis.npz"
    save_basis(p, b1, g, fld, L=2, J=1, layers=1)
    back = load_basis(p, g, fld, L=2, J=1, layers=1)
    assert np.array_equal(back.R, b1.R)
    assert np.array_equal(back.col_elem, b1.col_elem)
    assert np.array_equal(back.tags, b1.tags)


def test_basis_cache_rejects_mismatch(tmp_path):
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=3, L=2)
    b1 = cem_basis(g, fld, aux1, 1)
    p = tmp_path / "basis.npz"
    save_basis(p, b1, g, fld, L=2, J=2, layers=1)
    with pytest.raises(ValueError, match="grid"):
        load_basis(p, t.build_grids(3, 4), fld, L=2, J=2, layers=1)
    other = assembly.PermeabilityField(2.0 * fld.values)
    with pytest.raises(ValueError, match="field"):
        load_basis(p, g, other, L=2, J=2, layers=1)
    assert field_checksum(fld) != field_checksum(other)


def test_basis_cache_rejects_other_settings(tmp_path):
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=3, L=2)
    b1 = cem_basis(g, fld, aux1, 1)
    p = tmp_path / "basis.npz"
    save_basis(p, b1, g, fld, L=2, J=1, layers=1)
    with pytest.raises(ValueError, match="layers=1, expected layers=2"):
        load_basis(p, g, fld, L=2, J=1, layers=2)
    with pytest.raises(ValueError, match="L=2, expected L=3"):
        load_basis(p, g, fld, L=3, J=1, layers=1)
    with pytest.raises(ValueError, match="J=1, expected J=2"):
        load_basis(p, g, fld, L=2, J=2, layers=1)


def test_basis_cache_rejects_unversioned_file(tmp_path):
    g, fld, _, aux1 = setup_spaces(coarse_n=3, refine=3, L=2)
    b1 = cem_basis(g, fld, aux1, 1)
    p = tmp_path / "old.npz"
    np.savez_compressed(p, R=b1.R, col_elem=b1.col_elem, col_index=b1.col_index,
                        tags=b1.tags, coarse_n=g.coarse_n, refine=g.refine,
                        checksum=field_checksum(fld))
    with pytest.raises(ValueError, match="format version 1"):
        load_basis(p, g, fld, L=2, J=1, layers=1)

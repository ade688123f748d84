"""Tests for Q1 assembly, the MsFEM partition of unity, kappa_tilde, load
vectors, and the raster file format."""

import os
import tempfile

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tfmultiscale import assembly, harness
from tfmultiscale.assembly import (PermeabilityField, WeightedField, assemble,
                                   element_mass, kappa_tilde, load_vector,
                                   msfem_partition, read_raster, write_raster)
from tfmultiscale.grid import build_grids
from tfmultiscale.linalg import SolveError

MASS_UNIT = np.array([[4, 2, 1, 2],
                      [2, 4, 2, 1],
                      [1, 2, 4, 2],
                      [2, 1, 2, 4]], dtype=float) / 36.0

STIFF_UNIT = np.array([[4, -1, -2, -1],
                       [-1, 4, -1, -2],
                       [-2, -1, 4, -1],
                       [-1, -2, -1, 4]], dtype=float) / 6.0


# ------------------------------------------------------------ element matrices

def test_element_mass_unit():
    assert np.allclose(element_mass(1.0), MASS_UNIT, atol=1e-15)


def test_element_mass_sum_is_area():
    for h in (1.0, 0.1, 1 / 100):
        assert element_mass(h).sum() == pytest.approx(h * h, rel=1e-14)


def test_element_mass_scaling():
    h = 1 / 100
    assert np.allclose(element_mass(h), h * h * element_mass(1.0), rtol=1e-14)


def test_element_stiffness_unit():
    """``assemble`` scales one h-independent (2-D) reference stiffness by
    each cell's kappa: the unit Q1 stiffness, giving an interior diagonal
    of 4 * 4/6 at kappa = 1 on every mesh size."""
    assert np.allclose(assembly._STIFF_REF, STIFF_UNIT, atol=1e-14)
    for coarse_n, refine in ((2, 3), (4, 5), (10, 10)):
        g = build_grids(coarse_n, refine)
        A = assemble(g, PermeabilityField(np.ones(g.n_cells)), "stiffness")
        assert np.allclose(A.diagonal(), 8 / 3, rtol=1e-14)


def test_element_stiffness_rows_sum_zero():
    """The reference stiffness's rows, and every element's interior rows of
    the stiffness over its whole closure, sum to zero."""
    assert np.allclose(assembly._STIFF_REF.sum(axis=1), 0.0, atol=1e-14)
    g = build_grids(2, 3)
    K = assembly.element_blocks(g, np.full(g.n_cells, 3.3), assembly._STIFF_REF,
                                np.arange((g.refine + 1) ** 2))
    assert np.allclose(K.sum(axis=2), 0.0, atol=1e-13)


def test_element_stiffness_linear_in_kappa():
    g = build_grids(2, 3)
    one = assemble(g, PermeabilityField(np.ones(g.n_cells)), "stiffness")
    big = assemble(g, PermeabilityField(np.full(g.n_cells, 1e5)), "stiffness")
    assert abs(big - 1e5 * one).max() <= 1e-14 * abs(big).max()


# --------------------------------------------------------------------- assemble

def test_mass_matrix_pd():
    g = build_grids(2, 2)
    M = assemble(g, None, "mass").toarray()
    assert np.all(sla.eigvalsh(M) > 0)


def test_mass_matrix_is_assembled_once_per_grid_and_read_only():
    """The mass matrix of a grid is assembled once and shared, its arrays
    read-only, and equals the restriction of an all-node assembly."""
    g = build_grids(3, 4)
    M = assemble(g, None, "mass")
    assert assemble(g, None, "mass") is M
    assert not any(a.flags.writeable for a in (M.data, M.indices, M.indptr))
    with pytest.raises(ValueError, match="read-only"):
        M.data[0] = 0.0
    expect = _assemble_by_repeat_and_tile(g, np.ones(g.n_cells), element_mass(g.h))
    assert all(np.array_equal(a, b) for a, b in ((M.data, expect.data),
                                                 (M.indices, expect.indices),
                                                 (M.indptr, expect.indptr)))
    assert assemble(build_grids(3, 4), None, "mass") is not M


def smallest_laplace_eig(g):
    fld = PermeabilityField(np.ones(g.n_cells))
    A = assemble(g, fld, "stiffness").toarray()
    M = assemble(g, None, "mass").toarray()
    return sla.eigh(A, M, eigvals_only=True, subset_by_index=(0, 0))[0]


def test_stiffness_smallest_eig_near_laplace():
    # with a consistent mass matrix the 4x4-cell value is 5.24% above the
    # continuum 2 pi^2, so the bound carries a small margin
    lam1 = smallest_laplace_eig(build_grids(2, 2))
    assert lam1 == pytest.approx(2 * np.pi ** 2, rel=0.06)


def test_stiffness_smallest_eig_converges():
    errs = [abs(smallest_laplace_eig(build_grids(2, r)) / (2 * np.pi ** 2) - 1)
            for r in (2, 4, 8)]
    assert errs[1] < errs[0] / 3 and errs[2] < errs[1] / 3
    assert errs[2] < 0.005


def test_weighted_mass_zero_field():
    g = build_grids(2, 3)
    kt = WeightedField(np.zeros(g.n_cells))
    S = assemble(g, kt, "weighted_mass")
    assert S.nnz == 0 or np.allclose(S.toarray(), 0.0)


def test_stiffness_null_space_trivial():
    g = build_grids(3, 3)
    fld = PermeabilityField(np.ones(g.n_cells))
    A = assemble(g, fld, "stiffness").toarray()
    assert sla.eigvalsh(A).min() > 0


def test_stiffness_monotone_in_kappa():
    g = build_grids(2, 4)
    rng = np.random.default_rng(0)
    k1 = rng.uniform(0.5, 1.0, g.n_cells)
    k2 = k1 + rng.uniform(0.0, 2.0, g.n_cells)
    A1 = assemble(g, PermeabilityField(k1), "stiffness")
    A2 = assemble(g, PermeabilityField(k2), "stiffness")
    for _ in range(20):
        v = rng.standard_normal(g.n_dofs)
        assert v @ (A1 @ v) <= v @ (A2 @ v) + 1e-12


def test_weighted_mass_locality():
    """S assembled globally equals the sum of per-element blocks."""
    g = build_grids(3, 3)
    rng = np.random.default_rng(1)
    kt = rng.uniform(0.0, 2.0, g.n_cells)
    S = assemble(g, WeightedField(kt), "weighted_mass").toarray()
    Ssum = np.zeros_like(S)
    for cells in g.element_cells():
        local = np.zeros(g.n_cells)
        local[cells] = kt[cells]
        Ssum += assemble(g, WeightedField(local), "weighted_mass").toarray()
    assert np.allclose(S, Ssum, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 3)] * 3),
       spans=st.lists(st.tuples(*[st.booleans()] * 3), min_size=3, max_size=3),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_scatter_broadcasts_drops_negatives_and_sums_duplicates(shape, spans,
                                                                 n, seed):
    """Values, rows and columns of different (broadcastable) shapes: the COO
    lists every broadcast entry in C order except those at a row or column
    of -1, and duplicates are summed."""
    rng = np.random.default_rng(seed)
    values, rows, cols = (
        draw(tuple(s if spanned else 1 for s, spanned in zip(shape, span)))
        for draw, span in zip((rng.standard_normal,
                               lambda s: rng.integers(-1, n, s),
                               lambda s: rng.integers(-1, n, s)), spans))
    full = np.broadcast_shapes(values.shape, rows.shape, cols.shape)

    def at(x, idx):
        return x[tuple(i % d for i, d in zip(idx, x.shape))]

    listed = [(at(rows, i), at(cols, i), at(values, i)) for i in np.ndindex(full)]
    listed = [e for e in listed if e[0] >= 0 and e[1] >= 0]
    K = assembly._scatter(values, rows, cols, (n, n))
    assert list(zip(K.row, K.col, K.data)) == listed
    dense = np.zeros((n, n))
    for r, c, v in listed:
        dense[r, c] += v
    assert np.array_equal(K.toarray(), dense)
    assert np.allclose(K.tocsr().toarray(), dense, rtol=0, atol=1e-14)


def _assemble_by_repeat_and_tile(grid, weights, ref):
    """``assemble`` as built before ``_scatter``: one COO whose index lists
    come from np.repeat and np.tile, sliced to the interior DOFs."""
    conn = grid.cell_nodes()
    blocks = weights[:, None, None] * ref[None, :, :]
    K = sp.coo_matrix((blocks.ravel(), (np.repeat(conn, 4, axis=1).ravel(),
                                        np.tile(conn, (1, 4)).ravel())),
                      shape=(grid.n_nodes, grid.n_nodes)).tocsr()
    idx = grid.interior_nodes()
    return K[idx][:, idx].tocsr()


@pytest.mark.parametrize("weight", ["mass", "stiffness", "weighted_mass"])
def test_assemble_bit_equal_to_repeat_and_tile_coo(weight):
    g = build_grids(4, 5)
    kappa = 10.0 ** np.random.default_rng(3).uniform(0.0, 6.0, g.n_cells)
    if weight == "mass":
        field, w, ref = None, np.ones(g.n_cells), element_mass(g.h)
    elif weight == "stiffness":
        field, w, ref = PermeabilityField(kappa), kappa, STIFF_UNIT
    else:
        field, w, ref = WeightedField(kappa), kappa, element_mass(g.h)
    got, oracle = assemble(g, field, weight), _assemble_by_repeat_and_tile(g, w, ref)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(oracle, name))


@settings(max_examples=40, deadline=None)
@given(coarse_n=st.integers(2, 5), refine=st.integers(2, 7),
       kind=st.sampled_from(["mass", "stiffness", "weighted_mass"]),
       cols=st.sampled_from(["interior", "boundary", "closure"]),
       seed=st.integers(0, 2**32 - 1))
def test_element_blocks_bit_equal_to_the_assembled_blocks(coarse_n, refine, kind,
                                                           cols, seed):
    """Every element's block summed from its own cells, cell weights from
    1e-4 to 1e8, is bit-equal to the same block sliced out of the assembled
    matrix by scipy, a column of -1 (a perimeter node without a DOF) reading
    zero; the interior columns are asked for by one list for every element,
    the others by one list per element."""
    g = build_grids(coarse_n, refine)
    w = 10.0 ** np.random.default_rng(seed).uniform(-4.0, 8.0, g.n_cells)
    field, ref = {"mass": (None, element_mass(g.h)),
                  "stiffness": (PermeabilityField(w), assembly._STIFF_REF),
                  "weighted_mass": (WeightedField(w), element_mass(g.h))}[kind]
    if kind == "mass":
        w = np.ones(g.n_cells)
    maps = g.index_maps(0)
    ni, closure = maps.interior.shape[1], maps.closure
    at = {"interior": np.arange(ni), "boundary": np.arange(ni, closure.shape[1]),
          "closure": np.arange(closure.shape[1])}[cols]
    dofs = closure[:, at]
    got = assembly.element_blocks(g, w, ref, at if cols == "interior" else
                                  np.where(dofs >= 0, at, -1))
    X = assemble(g, field, kind)
    assert got.shape == (g.coarse_n ** 2, ni, len(at))
    for e, rows in enumerate(maps.interior):
        valid = dofs[e] >= 0
        expect = np.zeros((ni, len(at)))
        expect[:, valid] = X[rows][:, dofs[e][valid]].toarray()
        assert np.array_equal(got[e], expect)


def test_field_validation():
    with pytest.raises(ValueError):
        PermeabilityField(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PermeabilityField(np.array([1.0, -2.0]))
    fld = PermeabilityField(np.array([1.0, 1e5]))
    assert fld.values.max() / fld.values.min() == pytest.approx(1e5)


# -------------------------------------------------------------- msfem partition

def _corners(grid):
    """(n elements, 4) lexicographic vertex ids of each coarse element's
    corners, SW, SE, NE, NW."""
    cn = grid.coarse_n
    cy, cx = np.divmod(np.arange(cn * cn), cn)
    sw = cy * (cn + 1) + cx
    return np.column_stack([sw, sw + 1, sw + cn + 2, sw + cn + 1])


def _global_chi(grid, values):
    """chi_i at every fine node, one row per coarse vertex (lexicographic):
    each element's corner values scattered to its nodes, and the copies
    that neighbouring elements write on a shared node averaged."""
    at = tuple(np.broadcast_to(a, values.shape) for a in
               (_corners(grid)[:, None, :], grid._element_maps[1][:, :, None]))
    shape = ((grid.coarse_n + 1) ** 2, grid.n_nodes)
    total, count = np.zeros(shape), np.zeros(shape)
    np.add.at(total, at, values)
    np.add.at(count, at, 1.0)
    return np.divide(total, count, out=total, where=count > 0)


def test_msfem_constant_kappa_gives_hats():
    g = build_grids(3, 4)
    fld = PermeabilityField(np.ones(g.n_cells))
    pou = msfem_partition(g, fld)
    # bilinear hat of coarse vertex (1,1) evaluated at all fine nodes
    xy = g.node_coords()
    H = 1 / g.coarse_n
    vx, vy = H, H
    hat = (np.maximum(0.0, 1 - np.abs(xy[:, 0] - vx) / H)
           * np.maximum(0.0, 1 - np.abs(xy[:, 1] - vy) / H))
    k = 1 * (g.coarse_n + 1) + 1  # vertex id in lexicographic vertex order
    chi = _global_chi(g, pou.values)[k]
    assert np.allclose(chi, hat, atol=1e-10)


def test_msfem_partition_of_unity_sum():
    g = build_grids(3, 5)
    rng = np.random.default_rng(2)
    fld = PermeabilityField(np.exp(rng.uniform(0, np.log(1e5), g.n_cells)))
    pou = msfem_partition(g, fld)
    total = _global_chi(g, pou.values).sum(axis=0)
    interior = g.interior_nodes()
    assert np.allclose(total[interior], 1.0, atol=1e-10)


def test_msfem_corner_values_sum_to_one_at_every_element_node():
    g = build_grids(4, 6)
    rng = np.random.default_rng(5)
    fld = PermeabilityField(np.exp(rng.normal(0.0, 3.0, g.n_cells)))
    values = msfem_partition(g, fld).values
    assert values.shape == (g.coarse_n ** 2, (g.refine + 1) ** 2, 4)
    assert np.allclose(values.sum(axis=2), 1.0, rtol=0, atol=1e-10)


def test_msfem_neighbouring_elements_agree_bit_for_bit_on_shared_nodes():
    """An element and its east (north) neighbour hold the same bits for the
    two vertices of their shared edge, so averaging the copies on a shared
    node gives back each element's own value."""
    cn, r = 4, 5
    g = build_grids(cn, r)
    rng = np.random.default_rng(6)
    fld = PermeabilityField(np.where(rng.random(g.n_cells) < 0.3, 1e6, 1.0)
                            * np.exp(rng.normal(0.0, 1.0, g.n_cells)))
    values = msfem_partition(g, fld).values
    v = values.reshape(cn, cn, r + 1, r + 1, 4)       # (ey, ex, ly, lx, corner)
    # East edge (lx = r) of SE, NE is the neighbour's west edge of SW, NW.
    assert np.array_equal(v[:, :-1, :, r][..., [1, 2]], v[:, 1:, :, 0][..., [0, 3]])
    # North edge (ly = r) of NW, NE is the neighbour's south edge of SW, SE.
    assert np.array_equal(v[:-1, :, r][..., [3, 2]], v[1:, :, 0][..., [0, 1]])
    chi = _global_chi(g, values)
    own = chi[_corners(g)[:, None, :], g._element_maps[1][:, :, None]]
    assert np.array_equal(own, values)


def test_msfem_checkerboard_bounds():
    g = build_grids(2, 10)
    ix, iy = np.meshgrid(np.arange(g.n_fine), np.arange(g.n_fine), indexing="xy")
    kappa = np.where(((ix + iy) % 2 == 0).ravel(), 1e5, 1.0)
    pou = msfem_partition(g, PermeabilityField(kappa))
    vals = _global_chi(g, pou.values)
    assert vals.min() >= -1e-8
    assert vals.max() <= 1.0 + 1e-8


def test_msfem_support():
    g = build_grids(4, 3)
    fld = PermeabilityField(np.ones(g.n_cells))
    pou = msfem_partition(g, fld)
    xy = g.node_coords()
    H = 1 / g.coarse_n
    cn = g.coarse_n
    chi_all = _global_chi(g, pou.values)
    for vy in range(cn + 1):
        for vx in range(cn + 1):
            chi = chi_all[vy * (cn + 1) + vx]
            far = (np.abs(xy[:, 0] - vx * H) > H + 1e-12) | \
                  (np.abs(xy[:, 1] - vy * H) > H + 1e-12)
            assert np.allclose(chi[far], 0.0, atol=1e-12)


def _msfem_partition_loop(grid, field):
    """The element loop ``msfem_partition`` replaced: one local stiffness,
    SuperLU factorization and solve per coarse element, the elements' tables
    of corner values stacked."""
    r = grid.refine
    lx, ly = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="xy")
    lx = lx.ravel() / r
    ly = ly.ravel() / r
    on_bdy = (lx == 0) | (lx == 1) | (ly == 0) | (ly == 1)
    bdy = np.flatnonzero(on_bdy)
    inner = np.flatnonzero(~on_bdy)
    hats = np.column_stack([(1 - lx) * (1 - ly), lx * (1 - ly), lx * ly, (1 - lx) * ly])
    cX, cY = np.meshgrid(np.arange(r), np.arange(r), indexing="xy")
    c0 = cY.ravel() * (r + 1) + cX.ravel()
    conn = np.column_stack([c0, c0 + 1, c0 + r + 2, c0 + r + 1])
    stack = []
    for cells in grid.element_cells():
        kap = field.values[cells]
        blocks = kap[:, None, None] * STIFF_UNIT[None, :, :]
        ii = np.repeat(conn, 4, axis=1).ravel()
        jj = np.tile(conn, (1, 4)).ravel()
        Aloc = sp.coo_matrix((blocks.ravel(), (ii, jj)),
                             shape=((r + 1) ** 2, (r + 1) ** 2)).tocsc()
        lu = spla.splu(Aloc[inner][:, inner].tocsc())
        G = hats[bdy]
        rhs = -Aloc[inner][:, bdy] @ G
        sol = lu.solve(rhs)
        vals = np.empty(((r + 1) ** 2, 4))
        vals[bdy] = G
        vals[inner] = sol
        stack.append(vals)
    return np.stack(stack)


def _kappa_tilde_loop(field, grid, chi):
    """The vertex loop ``kappa_tilde`` replaced: every chi_i on every cell."""
    conn = grid.cell_nodes()
    h = grid.h
    total = np.zeros(grid.n_cells)
    for chi_i in chi:
        u = chi_i[conn]
        gx = ((u[:, 1] - u[:, 0]) + (u[:, 2] - u[:, 3])) / (2 * h)
        gy = ((u[:, 3] - u[:, 0]) + (u[:, 2] - u[:, 1])) / (2 * h)
        total += gx * gx + gy * gy
    return field.values * total


@settings(max_examples=25, deadline=None)
@given(coarse_n=st.integers(2, 5), refine=st.integers(2, 7),
       contrast=st.floats(1.0, 1e6), seed=st.integers(0, 2**32 - 1))
def test_partition_and_kappa_tilde_bit_equal_to_element_loops(coarse_n, refine,
                                                               contrast, seed):
    """The batched partition of unity and kappa_tilde feed the round-off
    sensitive contrast-1e6 spectral problems, so they must equal the element
    loops bit for bit, not just to a tolerance; kappa_tilde is taken from
    the global chi, duplicates averaged, that the element loop's tables
    scatter to."""
    g = build_grids(coarse_n, refine)
    mask = np.random.default_rng(seed).random(g.n_cells) < 0.3
    fld = PermeabilityField(np.where(mask, contrast, 1.0))
    pou = msfem_partition(g, fld)
    oracle = _msfem_partition_loop(g, fld)
    assert np.array_equal(pou.values, oracle)
    assert np.array_equal(kappa_tilde(fld, pou).values,
                          _kappa_tilde_loop(fld, g, _global_chi(g, oracle)))


def _msfem_partition_block_diagonal(grid, field):
    """``msfem_partition`` as built before the element blocks were summed
    from their own cells: the local stiffnesses as one block-diagonal COO,
    elements in order, its interior blocks and boundary product sliced out
    by scipy, and a new CSC per element factored by SuperLU."""
    r = grid.refine
    n = (r + 1) ** 2
    ly, lx = np.divmod(np.arange(n), r + 1)
    lx, ly = lx / r, ly / r
    on_bdy = (lx == 0) | (lx == 1) | (ly == 0) | (ly == 1)
    bdy, inner = np.flatnonzero(on_bdy), np.flatnonzero(~on_bdy)
    ni = len(inner)
    hats = np.column_stack([(1 - lx) * (1 - ly), lx * (1 - ly), lx * ly, (1 - lx) * ly])
    elem_cells = grid.element_cells()
    ne = len(elem_cells)
    off = n * np.arange(ne)[:, None]
    cy, cx = np.divmod(np.arange(r * r), r)
    c0 = cy * (r + 1) + cx
    nodes = np.column_stack([c0, c0 + 1, c0 + r + 2, c0 + r + 1]) + off[:, :, None]
    A = assembly._scatter(field.values[elem_cells][:, :, None, None] * assembly._STIFF_REF,
                          nodes[..., None], nodes[..., None, :], (ne * n, ne * n)).tocsc()
    rows = (inner + off).ravel()
    A_ii = A[rows][:, rows]
    G = hats[bdy]
    rhs = -A[rows][:, (bdy + off).ravel()] @ np.tile(G, (ne, 1))
    sol = np.empty_like(rhs)
    nnz = A_ii.nnz // ne
    for e, data in enumerate(A_ii.data.reshape(ne, nnz)):
        K = sp.csc_matrix((data, A_ii.indices[:nnz], A_ii.indptr[:ni + 1]), shape=(ni, ni))
        sol[e * ni:(e + 1) * ni] = spla.splu(K).solve(rhs[e * ni:(e + 1) * ni])
    values = np.empty((ne, n, 4))
    values[:, bdy] = G
    values[:, inner] = sol.reshape(ne, ni, 4)
    return values


def _partition_case(case):
    if case == "reduced-sweep":
        return build_grids(10, 5), harness.gen_field("channels", nx=50, ny=50,
                                                     contrast=1e5, seed=0)
    if case == "exp1":
        cfg = harness.experiment_config(1)
        g = build_grids(cfg.coarse_n, cfg.refine)
        return g, harness.gen_field(nx=g.n_fine, ny=g.n_fine, **cfg.field)
    geometry, contrast = case.split("-")
    mask = harness.channel_geometry(24, 24, seed=int(geometry[1:])).ravel()
    return build_grids(4, 6), PermeabilityField(np.where(mask, float(contrast), 1.0))


@pytest.mark.parametrize("case", [f"g{g}-{c}" for g in (0, 2, 7)
                                  for c in ("1e2", "1e4", "1e6")]
                         + ["reduced-sweep", "exp1"])
def test_partition_bit_equal_to_the_block_diagonal_coo(case):
    """The partition of unity is bit-equal to the block-diagonal COO path on
    contrast-sweep geometries 0, 2 and 7, the reduced-sweep grid and
    experiment 1's raster."""
    g, fld = _partition_case(case)
    assert np.array_equal(msfem_partition(g, fld).values,
                          _msfem_partition_block_diagonal(g, fld))


def test_partition_rejects_a_wrong_factorization(monkeypatch):
    """Only element 3's local Dirichlet block is factored as 2K: its
    solutions' backward errors are near 1/2, and the check names element 3."""
    g = build_grids(3, 4)
    fld = PermeabilityField(np.ones(g.n_cells))
    splu, factored = spla.splu, []

    def lu(K):
        factored.append(K)
        return splu(2.0 * K if len(factored) == 4 else K)

    monkeypatch.setattr(assembly.spla, "splu", lu)
    with pytest.raises(SolveError, match="on element 3: column 0: backward error"):
        msfem_partition(g, fld)
    assert len(factored) == g.coarse_n ** 2


# ------------------------------------------------------------------ kappa_tilde

def test_kappa_tilde_constant_kappa_closed_form():
    g = build_grids(2, 4)
    fld = PermeabilityField(np.ones(g.n_cells))
    pou = msfem_partition(g, fld)
    kt = kappa_tilde(fld, pou)
    # first fine cell: midpoint at (h/2, h/2); in coarse element [0,H]^2 the
    # four bilinear hats give sum |grad chi|^2
    #   = 2[(1-xb)^2 + xb^2 + (1-yb)^2 + yb^2] / H^2 with xb=x/H, yb=y/H.
    H, h = 1 / g.coarse_n, g.h
    xb = yb = (h / 2) / H
    expect = 2 * ((1 - xb) ** 2 + xb ** 2 + (1 - yb) ** 2 + yb ** 2) / H ** 2
    assert kt.values[0] == pytest.approx(expect, rel=1e-10)


def test_kappa_tilde_rejects_a_field_of_another_grid():
    """A 20x20 field against a 24x24 partition is rejected with assemble's
    message, not inside numpy."""
    pou = msfem_partition(build_grids(4, 6), PermeabilityField(np.ones(576)))
    with pytest.raises(ValueError, match="field has 400 cells, grid has 576"):
        kappa_tilde(PermeabilityField(np.ones(400)), pou)


def test_kappa_tilde_scales_with_kappa():
    g = build_grids(2, 3)
    fld = PermeabilityField(np.ones(g.n_cells))
    pou = msfem_partition(g, fld)
    kt1 = kappa_tilde(fld, pou)
    kt2 = kappa_tilde(PermeabilityField(3.0 * np.ones(g.n_cells)), pou)
    assert np.allclose(kt2.values, 3.0 * kt1.values, rtol=1e-12)


def test_kappa_tilde_nonnegative():
    g = build_grids(3, 4)
    rng = np.random.default_rng(3)
    fld = PermeabilityField(np.where(rng.random(g.n_cells) < 0.3, 1e5, 1.0))
    pou = msfem_partition(g, fld)
    kt = kappa_tilde(fld, pou)
    assert kt.values.min() >= 0.0


# ------------------------------------------------------------------ load_vector

def test_load_zero():
    g = build_grids(2, 3)
    b = load_vector(g, lambda x, y, t: np.zeros_like(x), 0.0)
    assert np.allclose(b, 0.0)


def test_load_constant_row_sum_identity():
    g = build_grids(2, 3)
    b = load_vector(g, lambda x, y, t: np.ones_like(x), 0.0)
    M = assemble(g, None, "mass")
    full_rows = np.zeros(g.n_nodes)
    conn = g.cell_nodes()
    Me = element_mass(g.h)
    np.add.at(full_rows, conn.ravel(), np.tile(Me.sum(axis=1), len(conn)))
    assert np.allclose(b, full_rows[g.interior_nodes()], atol=1e-14)


def test_load_smooth_vs_quadrature_oracle():
    """Compare against the exact integral of the sine forcing against hats."""
    g = build_grids(10, 10)
    f = lambda x, y, t: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    b = load_vector(g, f, 0.0)
    # closed form: int hat_i(x) sin(pi x) dx = sin(pi x_i) (2 - 2cos(pi h)) / (pi^2 h)
    h = g.h
    s = np.linspace(0.0, 1.0, g.n_nodes_side)
    one_d = np.sin(np.pi * s) * (2.0 - 2.0 * np.cos(np.pi * h)) / (np.pi ** 2 * h)
    oracle_full = 2 * np.pi ** 2 * np.outer(one_d, one_d).ravel()
    oracle = oracle_full[g.interior_nodes()]
    rel = np.linalg.norm(b - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-3


def test_load_time_argument_passed():
    g = build_grids(2, 2)
    b1 = load_vector(g, lambda x, y, t: t * np.ones_like(x), 2.0)
    b2 = load_vector(g, lambda x, y, t: np.ones_like(x), 0.0)
    assert np.allclose(b1, 2.0 * b2)


def _load_vector_add_at(g, f, t):
    """Oracle: the load vector summed with np.add.at on geometry built here."""
    nn = g.n_nodes_side
    s = np.linspace(0.0, 1.0, nn)
    X, Y = np.meshgrid(s, s, indexing="xy")
    xy = np.column_stack([X.ravel(), Y.ravel()])
    fn = np.asarray(f(xy[:, 0], xy[:, 1], t), dtype=float)
    fn = np.broadcast_to(fn, (g.n_nodes,))
    cx, cy = np.meshgrid(np.arange(g.n_fine), np.arange(g.n_fine), indexing="xy")
    n0 = cy.ravel() * nn + cx.ravel()
    conn = np.column_stack([n0, n0 + 1, n0 + nn + 1, n0 + nn])
    out = np.zeros(g.n_nodes)
    np.add.at(out, conn.ravel(), (fn[conn] @ element_mass(g.h).T).ravel())
    inner = np.arange(1, nn - 1)
    return out.reshape(nn, nn)[np.ix_(inner, inner)].ravel()


@settings(max_examples=40, deadline=None)
@given(coarse_n=st.integers(2, 4), refine=st.integers(2, 5),
       t=st.floats(0.0, 10.0), c=st.floats(-1e3, 1e3),
       kind=st.sampled_from(["constant", "smooth", "time-dependent"]))
def test_load_vector_bit_identical_to_add_at(coarse_n, refine, t, c, kind):
    forcings = {
        "constant": lambda x, y, tt: c,
        "smooth": lambda x, y, tt: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y),
        "time-dependent": lambda x, y, tt: c * np.exp(-tt) * x * (1 - y) + np.cos(tt * y),
    }
    g = build_grids(coarse_n, refine)
    f = forcings[kind]
    assert np.array_equal(load_vector(g, f, t), _load_vector_add_at(g, f, t))


# ----------------------------------------------------------------------- raster

def test_raster_round_trip_exact(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.uniform(1.0, 1e5, 12)
    p = tmp_path / "field.txt"
    write_raster(p, 4, 3, vals)
    nx, ny, back = read_raster(p)
    assert (nx, ny) == (4, 3)
    assert np.array_equal(back, vals)  # bit-exact


@settings(max_examples=30, deadline=None)
@given(data=st.data(), nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_raster_round_trip_exact_on_random_values(data, nx, ny):
    vals = data.draw(arrays(np.float64, nx * ny,
                            elements=st.floats(allow_nan=False, allow_infinity=False)))
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "field.txt")
        write_raster(p, nx, ny, vals)
        back = read_raster(p)
    assert back[:2] == (nx, ny)
    assert np.array_equal(back[2], vals)


# Values at the edges of float formatting: signed zeros, subnormals, the
# largest float, infinities, NaN and a value needing all 17 digits.
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
               0.1, 1.0 / 3.0, 1e16]


def test_raster_bytes_match_a_17_digit_format(tmp_path):
    """write_raster writes what "{:.17g}" gives, value by value."""
    vals = np.array(EDGE_VALUES)
    p = tmp_path / "edge.txt"
    write_raster(p, 4, 3, vals)
    oracle = "4 3\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                               for row in vals.reshape(3, 4))
    assert p.read_bytes() == oracle.encode()


def test_raster_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("4\n1 2 3 4\n")
    with pytest.raises(ValueError, match=":1:"):
        read_raster(p)


def test_raster_bad_value_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2\n3 oops\n")
    with pytest.raises(ValueError, match=":3:"):
        read_raster(p)


def test_raster_wrong_count(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 4"):
        read_raster(p)

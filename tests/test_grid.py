"""Tests for the nested grid hierarchy and its index maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfmultiscale.grid import GridHierarchy, build_grids


def _dof_map_oracle(coarse_n, refine):
    """Per fine node, its interior DOF index or -1 on the outer boundary."""
    nf = coarse_n * refine
    nn = nf + 1
    ix, iy = np.meshgrid(np.arange(nn), np.arange(nn), indexing="xy")
    interior = (ix.ravel() > 0) & (ix.ravel() < nf) & (iy.ravel() > 0) & (iy.ravel() < nf)
    dof_map = np.full(nn * nn, -1, dtype=np.int64)
    dof_map[interior] = np.arange(interior.sum())
    return dof_map


def _element_maps_oracle(coarse_n, refine):
    """Per coarse element, (fine cell ids, fine node ids), built one element
    at a time."""
    nf = coarse_n * refine
    nn = nf + 1
    elem_maps = []
    r = refine
    for cy in range(coarse_n):
        for cx in range(coarse_n):
            fx = np.arange(cx * r, (cx + 1) * r)
            fy = np.arange(cy * r, (cy + 1) * r)
            FX, FY = np.meshgrid(fx, fy, indexing="xy")
            cells = (FY * nf + FX).ravel()
            gx = np.arange(cx * r, (cx + 1) * r + 1)
            gy = np.arange(cy * r, (cy + 1) * r + 1)
            GX, GY = np.meshgrid(gx, gy, indexing="xy")
            nodes = (GY * nn + GX).ravel()
            elem_maps.append((cells, nodes))
    return elem_maps


def test_build_grids_paper_sizes():
    g = build_grids(10, 10)
    assert g.h * g.refine == pytest.approx(0.1)
    assert g.h == pytest.approx(0.01)
    assert g.n_dofs == 99 ** 2 == 9801


def test_build_grids_small():
    g = build_grids(2, 2)
    assert g.n_fine == 4
    assert g.n_cells == 16
    assert g.n_dofs == 9


def test_element_maps_counts():
    g = build_grids(10, 10)
    for cells, nodes in zip(g.element_cells(), g._element_maps[1]):
        assert len(cells) == 100
        assert len(nodes) == 121


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        build_grids(1, 10)
    with pytest.raises(ValueError):
        build_grids(10, 1)


@pytest.mark.parametrize("counts, name", [
    ((1, 3), "coarse_n"), ((3, 1), "refine"), ((3, 2.5), "refine"),
    ((3.0, 4), "coarse_n"), ((3, "4"), "refine"), ((None, 4), "coarse_n")])
def test_grid_rejects_invalid_counts(counts, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 2"):
        GridHierarchy(*counts)
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 2"):
        build_grids(*counts)


def test_grid_is_its_two_counts():
    g = build_grids(np.int64(3), 4)
    assert g == GridHierarchy(3, 4) and hash(g) == hash(GridHierarchy(3, 4))
    assert g != GridHierarchy(4, 3)


def test_partition_of_cells():
    g = build_grids(4, 3)
    seen = g.element_cells().ravel()
    assert len(seen) == g.n_cells
    assert np.array_equal(np.sort(seen), np.arange(g.n_cells))


def test_node_cover():
    g = build_grids(3, 4)
    union = np.unique(g._element_maps[1])
    assert np.array_equal(union, np.arange(g.n_nodes))


@settings(max_examples=30, deadline=None)
@given(coarse_n=st.integers(2, 5), refine=st.integers(2, 6))
def test_element_tables_match_loop_oracle(coarse_n, refine):
    g = build_grids(coarse_n, refine)
    cells, nodes = g.element_cells(), g._element_maps[1]
    oracle = _element_maps_oracle(coarse_n, refine)
    assert cells.shape == (g.coarse_n ** 2, refine ** 2)
    assert nodes.shape == (g.coarse_n ** 2, (refine + 1) ** 2)
    for e, (oc, on) in enumerate(oracle):
        assert np.array_equal(cells[e], oc)
        assert np.array_equal(nodes[e], on)
    # The cells of the elements partition the fine cells, and their nodes
    # cover the fine nodes.
    assert np.array_equal(np.sort(cells.ravel()), np.arange(g.n_cells))
    assert np.array_equal(np.unique(nodes), np.arange(g.n_nodes))
    for a in (cells, nodes):
        assert not a.flags.writeable
    assert g.element_cells() is cells
    dof_map = _dof_map_oracle(coarse_n, refine)
    assert np.array_equal(g.interior_nodes(), np.flatnonzero(dof_map >= 0))


def test_every_node_in_1_to_4_cells():
    g = build_grids(3, 3)
    counts = np.bincount(g.cell_nodes().ravel(), minlength=g.n_nodes)
    assert counts.min() >= 1
    assert counts.max() <= 4


def _patch(g, i, layers):
    """Coarse elements and fine DOFs of element i's patch."""
    maps = g.index_maps(layers)
    return np.flatnonzero(maps.in_patch[i]), maps.patch_dofs[i]


def test_oversample_interior_one_layer():
    g = build_grids(5, 4)
    # element (2,2) is interior
    i = 2 * 5 + 2
    elements, _ = _patch(g, i, 1)
    assert len(elements) == 9


def test_oversample_corner_one_layer():
    g = build_grids(5, 4)
    elements, _ = _patch(g, 0, 1)
    assert len(elements) == 4


def test_oversample_zero_layers_is_element():
    g = build_grids(5, 4)
    for i in (0, 7, 24):
        elements, dofs = _patch(g, i, 0)
        assert np.array_equal(elements, [i])
        assert np.array_equal(np.sort(dofs),
                              np.sort(g.index_maps(0).interior[i]))


def test_oversample_monotone_nesting():
    g = build_grids(6, 3)
    for i in (0, 14, 35):
        prev = _patch(g, i, 0)
        for k in (1, 2, 3):
            cur = _patch(g, i, k)
            assert set(prev[0]) <= set(cur[0])
            assert set(prev[1]) <= set(cur[1])
            prev = cur


def test_oversample_local_dofs_strictly_interior():
    g = build_grids(4, 5)
    _, dofs = _patch(g, 5, 1)
    cy, cx = divmod(5, 4)
    cx0, cx1, cy0, cy1 = max(cx - 1, 0), min(cx + 1, 3), max(cy - 1, 0), min(cy + 1, 3)
    nn = g.n_nodes_side
    r = g.refine
    interior = g.interior_nodes()
    nodes = interior[dofs]
    x = nodes % nn
    y = nodes // nn
    assert x.min() > cx0 * r and x.max() < (cx1 + 1) * r
    assert y.min() > cy0 * r and y.max() < (cy1 + 1) * r


def test_oversample_index_validation():
    g = build_grids(3, 3)
    with pytest.raises(IndexError):
        _patch(g, 9, 1)
    with pytest.raises(ValueError):
        _patch(g, 0, -1)


def test_element_interior_dof_union_disjoint():
    g = build_grids(4, 4)
    all_dofs = g.index_maps(0).interior.ravel()
    assert len(all_dofs) == len(np.unique(all_dofs))


@settings(max_examples=15, deadline=None)
@given(coarse_n=st.integers(2, 4), refine=st.integers(2, 5))
def test_geometry_built_once_and_read_only(coarse_n, refine):
    g = build_grids(coarse_n, refine)
    for get in (g.node_coords, g.cell_nodes, g.interior_nodes):
        a = get()
        assert get() is a
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]
        with pytest.raises(ValueError, match="read-only"):
            a += 1


@settings(max_examples=25, deadline=None)
@given(coarse_n=st.integers(2, 5), refine=st.integers(2, 6),
       layers=st.integers(0, 3))
def test_index_maps_match_direct_construction(coarse_n, refine, layers):
    g = build_grids(coarse_n, refine)
    maps = g.index_maps(layers)
    dof_map = _dof_map_oracle(coarse_n, refine)
    elem_maps = _element_maps_oracle(coarse_n, refine)
    nn, r = g.n_nodes_side, refine
    nodes = g.interior_nodes()
    x, y = nodes % nn, nodes // nn
    on_skel = (x % r == 0) | (y % r == 0)
    assert np.array_equal(maps.skeleton, np.flatnonzero(on_skel))
    pos = np.full(g.n_dofs, -1)
    pos[on_skel] = np.arange(on_skel.sum())
    assert np.array_equal(maps.skeleton_pos, pos)
    ni = (r - 1) ** 2
    assert maps.closure.shape == (g.coarse_n ** 2, (r + 1) ** 2)
    assert maps.boundary_pos.shape == (g.coarse_n ** 2, 4 * r)
    assert np.array_equal(maps.interior, maps.closure[:, :ni])
    for i in range(g.coarse_n ** 2):
        cy, cx = divmod(i, coarse_n)
        inside = (x > cx * r) & (x < (cx + 1) * r) & (y > cy * r) & (y < (cy + 1) * r)
        assert np.array_equal(maps.interior[i], np.flatnonzero(inside))
        # The oracle's nodes are x fastest; the closure lists the interior
        # nodes, then the perimeter nodes, each in that order.
        ny, nx = np.divmod(elem_maps[i][1], nn)
        on_perimeter = (nx % r == 0) | (ny % r == 0)
        closure = dof_map[elem_maps[i][1]]
        assert np.array_equal(maps.closure[i], np.r_[closure[~on_perimeter],
                                                     closure[on_perimeter]])
        perimeter = closure[on_perimeter]
        assert np.array_equal(perimeter[perimeter >= 0],
                              closure[np.isin(closure, np.flatnonzero(on_skel))])
        assert np.array_equal(maps.boundary_pos[i],
                              np.where(perimeter >= 0, pos[perimeter], -1))
        x0, x1 = max(cx - layers, 0), min(cx + layers, coarse_n - 1)
        y0, y1 = max(cy - layers, 0), min(cy + layers, coarse_n - 1)
        dofs = np.flatnonzero((x > x0 * r) & (x < (x1 + 1) * r)
                              & (y > y0 * r) & (y < (y1 + 1) * r))
        assert np.array_equal(maps.patch_dofs[i], dofs)
        assert np.array_equal(maps.patch_skeleton[i], pos[dofs][pos[dofs] >= 0])
        ey, ex = np.divmod(np.arange(g.coarse_n ** 2), coarse_n)
        assert np.array_equal(maps.in_patch[i], (abs(ex - cx) <= layers)
                              & (abs(ey - cy) <= layers))
    arrays = (maps.interior, maps.closure, maps.boundary_pos, maps.skeleton,
              maps.skeleton_pos, maps.in_patch) + maps.patch_dofs + maps.patch_skeleton
    for a in arrays:
        assert not a.flags.writeable
    for a in arrays[:6] + maps.patch_dofs[:1]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]
    assert g.index_maps(layers) is maps
    other = g.index_maps(layers + 1)
    assert other is not maps
    assert g.index_maps(layers) is maps and g.index_maps(layers + 1) is other


def test_index_maps_reject_negative_layers():
    with pytest.raises(ValueError, match="layers"):
        build_grids(3, 3).index_maps(-1)


@pytest.mark.parametrize("layers", [True, False, 1.5, 2.0, "2", None])
def test_index_maps_reject_a_layers_that_is_not_an_integer(layers):
    with pytest.raises(ValueError, match="layers must be an integer >= 0"):
        build_grids(3, 3).index_maps(layers)


def test_index_maps_take_a_numpy_integer_layers():
    g = build_grids(3, 3)
    assert g.index_maps(np.int64(1)) is g.index_maps(1)


@pytest.mark.parametrize("refine", [2, 3, 6])
def test_element_closure_puts_perimeter_nodes_last(refine):
    """The closure order lists the interior nodes, then the perimeter nodes,
    each x fastest, and ``order[cells]`` are the x-fastest local nodes of
    the element's cells, counterclockwise from SW."""
    g = build_grids(3, refine)
    order, cells = g.element_closure()
    r, ni = refine, (refine - 1) ** 2
    ly, lx = np.divmod(np.arange((r + 1) ** 2), r + 1)
    on_perimeter = (lx % r == 0) | (ly % r == 0)
    assert np.array_equal(order, np.r_[np.flatnonzero(~on_perimeter),
                                       np.flatnonzero(on_perimeter)])
    assert not on_perimeter[order[:ni]].any() and on_perimeter[order[ni:]].all()
    local = [[cy * (r + 1) + cx, cy * (r + 1) + cx + 1, (cy + 1) * (r + 1) + cx + 1,
              (cy + 1) * (r + 1) + cx] for cy in range(r) for cx in range(r)]
    assert np.array_equal(order[cells], local)
    # The element's global nodes at its cells' closure positions are the
    # cell nodes of the grid.
    nodes = g._element_maps[1][:, order]
    assert np.array_equal(nodes[np.arange(9)[:, None, None], cells],
                          g.cell_nodes()[g.element_cells()])
    for a in (order, cells):
        assert not a.flags.writeable
    assert g.element_closure()[0] is order

"""Tests for the nested grid hierarchy and oversampling patches."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfmultiscale.grid import (GridHierarchy, build_grids,
                               element_interior_dofs, oversample)


def test_build_grids_paper_sizes():
    g = build_grids(10, 10)
    assert g.H == pytest.approx(0.1)
    assert g.h == pytest.approx(0.01)
    assert g.n_dofs == 99 ** 2 == 9801


def test_build_grids_small():
    g = build_grids(2, 2)
    assert g.n_fine == 4
    assert g.n_cells == 16
    assert g.n_dofs == 9


def test_element_maps_counts():
    g = build_grids(10, 10)
    for cells, nodes in g.elem_maps:
        assert len(cells) == 100
        assert len(nodes) == 121


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        build_grids(1, 10)
    with pytest.raises(ValueError):
        build_grids(10, 1)


def test_partition_of_cells():
    g = build_grids(4, 3)
    seen = np.concatenate([cells for cells, _ in g.elem_maps])
    assert len(seen) == g.n_cells
    assert np.array_equal(np.sort(seen), np.arange(g.n_cells))


def test_node_cover():
    g = build_grids(3, 4)
    union = np.unique(np.concatenate([nodes for _, nodes in g.elem_maps]))
    assert np.array_equal(union, np.arange(g.n_nodes))


def test_every_node_in_1_to_4_cells():
    g = build_grids(3, 3)
    counts = np.bincount(g.cell_nodes().ravel(), minlength=g.n_nodes)
    assert counts.min() >= 1
    assert counts.max() <= 4


def test_oversample_interior_one_layer():
    g = build_grids(5, 4)
    # element (2,2) is interior
    i = 2 * 5 + 2
    p = oversample(g, i, 1)
    assert len(p.elements) == 9


def test_oversample_corner_one_layer():
    g = build_grids(5, 4)
    p = oversample(g, 0, 1)
    assert len(p.elements) == 4


def test_oversample_zero_layers_is_element():
    g = build_grids(5, 4)
    for i in (0, 7, 24):
        p = oversample(g, i, 0)
        assert np.array_equal(p.elements, [i])
        assert np.array_equal(np.sort(p.local_dofs),
                              np.sort(element_interior_dofs(g, i)))


def test_oversample_monotone_nesting():
    g = build_grids(6, 3)
    for i in (0, 14, 35):
        prev = oversample(g, i, 0)
        for k in (1, 2, 3):
            cur = oversample(g, i, k)
            assert set(prev.elements) <= set(cur.elements)
            assert set(prev.local_dofs) <= set(cur.local_dofs)
            prev = cur


def test_oversample_local_dofs_strictly_interior():
    g = build_grids(4, 5)
    p = oversample(g, 5, 1)
    nn = g.n_nodes_side
    r = g.refine
    interior = g.interior_nodes()
    nodes = interior[p.local_dofs]
    x = nodes % nn
    y = nodes // nn
    assert x.min() > p.cx0 * r and x.max() < (p.cx1 + 1) * r
    assert y.min() > p.cy0 * r and y.max() < (p.cy1 + 1) * r


def test_oversample_index_validation():
    g = build_grids(3, 3)
    with pytest.raises(IndexError):
        oversample(g, 9, 1)
    with pytest.raises(ValueError):
        oversample(g, 0, -1)


def test_element_interior_dof_union_disjoint():
    g = build_grids(4, 4)
    all_dofs = np.concatenate([element_interior_dofs(g, i)
                               for i in range(g.n_coarse_elems)])
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
    nn, r = g.n_nodes_side, refine
    nodes = g.interior_nodes()
    x, y = nodes % nn, nodes // nn
    on_skel = (x % r == 0) | (y % r == 0)
    assert np.array_equal(maps.skeleton, np.flatnonzero(on_skel))
    pos = np.full(g.n_dofs, -1)
    pos[on_skel] = np.arange(on_skel.sum())
    assert np.array_equal(maps.skeleton_pos, pos)
    assert maps.boundary.shape == (g.n_coarse_elems, 4 * r)
    assert np.array_equal(maps.boundary_mask, maps.boundary >= 0)
    for i in range(g.n_coarse_elems):
        cy, cx = divmod(i, coarse_n)
        inside = (x > cx * r) & (x < (cx + 1) * r) & (y > cy * r) & (y < (cy + 1) * r)
        assert np.array_equal(maps.interior[i], np.flatnonzero(inside))
        assert np.array_equal(element_interior_dofs(g, i), np.flatnonzero(inside))
        closure = g.fine_dof_map[g.elem_maps[i][1]]
        assert np.array_equal(maps.boundary[i][maps.boundary_mask[i]],
                              closure[np.isin(closure, np.flatnonzero(on_skel))])
        x0, x1 = max(cx - layers, 0), min(cx + layers, coarse_n - 1)
        y0, y1 = max(cy - layers, 0), min(cy + layers, coarse_n - 1)
        dofs = np.flatnonzero((x > x0 * r) & (x < (x1 + 1) * r)
                              & (y > y0 * r) & (y < (y1 + 1) * r))
        assert np.array_equal(maps.patch_dofs[i], dofs)
        assert np.array_equal(oversample(g, i, layers).local_dofs, dofs)
        assert np.array_equal(maps.patch_skeleton[i], pos[dofs][pos[dofs] >= 0])
        ey, ex = np.divmod(np.arange(g.n_coarse_elems), coarse_n)
        assert np.array_equal(maps.in_patch[i], (abs(ex - cx) <= layers)
                              & (abs(ey - cy) <= layers))
    arrays = (maps.interior, maps.boundary, maps.boundary_mask, maps.skeleton,
              maps.skeleton_pos, maps.in_patch) + maps.patch_dofs + maps.patch_skeleton
    for a in arrays:
        assert not a.flags.writeable
    for a in arrays[:6] + maps.patch_dofs[:1]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]
    assert g.index_maps(layers) is maps
    other = g.index_maps(layers + 1)
    assert other is not maps
    assert np.array_equal(other.patch_dofs[0], oversample(g, 0, layers + 1).local_dofs)
    assert g.index_maps(layers) is maps and g.index_maps(layers + 1) is other


def test_index_maps_reject_negative_layers():
    with pytest.raises(ValueError, match="layers"):
        build_grids(3, 3).index_maps(-1)

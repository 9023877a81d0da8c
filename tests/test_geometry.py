"""Triangulation, barycentric and circumsphere behavior."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import smnn
from smnn.geometry import (
    COND_LIMIT,
    INDEX_MIN_CELLS,
    LOCATOR_MIN_CELLS,
    SCREEN_MIN_DIM,
    CellIndex,
    TAU,
    _cell_systems,
    _condition,
    _coordinate_slack,
    _hull_facets,
    _lift_screen,
    _reach,
    build_triangulation,
    clamp_coords,
    locate_batch,
)

from conftest import (
    SQUARE_POINTS,
    circumsphere,
    circumsphere_contains,
    random_cloud,
    same_bits,
    simplex_volume_normalized,
)

# Translated square vertices in row order (centroid removed).
SQ = SQUARE_POINTS - SQUARE_POINTS.mean(axis=0)


def square_tri():
    return smnn.build_delaunay(smnn.PointCloud(SQ))


def all_cells(tri, xs):
    """Raw coordinates of a batch of queries in every cell, shape (Q, S, n+1)."""
    xs = np.asarray(xs, dtype=np.float64)
    h = np.concatenate([xs, np.ones((xs.shape[0], 1))], axis=1)
    return np.einsum("sij,qj->qsi", tri.inverses, h)


def reference_facet_plane(points, facet_ids, opposite_id):
    """Outward unit normal and offset of a hull facet.

    The normal spans the null space of the facet edge matrix; its sign is
    fixed so the opposite vertex lies strictly on the negative side.
    """
    verts = points[facet_ids]
    diffs = verts[1:] - verts[0]
    _, sing, vt = np.linalg.svd(diffs, full_matrices=True)
    normal = vt[-1]
    offset = -float(normal @ verts.mean(axis=0))
    side_opp = float(normal @ points[opposite_id] + offset)
    if abs(side_opp) <= 1e-12 * max(1.0, float(np.abs(verts).max())):
        # The owning cell is flat, so the opposite vertex sits on the
        # facet plane and cannot orient it; point away from the cloud
        # centroid instead, which lies inside the hull.
        side_opp = float(normal @ points.mean(axis=0) + offset)
    if side_opp > 0.0:
        normal, offset = -normal, -offset
    return normal, offset


class TestPointCloud:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            smnn.PointCloud(np.array([[0.0, 1.0], [np.nan, 2.0]]))
        with pytest.raises(ValueError):
            smnn.PointCloud(np.array([[np.inf, 1.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            smnn.PointCloud(np.zeros(3))
        with pytest.raises(ValueError):
            smnn.PointCloud(np.zeros((0, 2)))

    def test_is_immutable_copy(self):
        src = np.zeros((2, 2))
        cloud = smnn.PointCloud(src)
        src[0, 0] = 5.0
        assert cloud.points[0, 0] == 0.0
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    def test_size_and_dim(self):
        cloud = smnn.PointCloud(np.zeros((3, 2)))
        assert cloud.size == 3 and cloud.dim == 2


class TestSimplexType:
    def test_requires_sorted_distinct_ids(self):
        assert smnn.Simplex((0, 2, 5)).vertex_ids == (0, 2, 5)
        with pytest.raises(ValueError):
            smnn.Simplex((2, 0, 5))
        with pytest.raises(ValueError):
            smnn.Simplex((1, 1, 2))


class TestBuildDelaunay:
    def test_single_triangle(self):
        tri = smnn.build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert [s.vertex_ids for s in tri.maximal] == [(0, 1, 2)]
        assert len(tri.boundary) == 3
        assert sorted(f.facet_ids for f in tri.boundary) == [(0, 1), (0, 2), (1, 2)]

    def test_square_two_simplices(self):
        tri = square_tri()
        assert [s.vertex_ids for s in tri.maximal] == [(0, 1, 2), (1, 2, 3)]
        assert [f.facet_ids for f in tri.boundary] == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_boundary_facet_orientation(self):
        tri = square_tri()
        for facet in tri.boundary:
            for vid in facet.facet_ids:
                assert abs(facet.normal @ SQ[vid] + facet.offset) < 1e-9
            assert facet.normal @ SQ[facet.opposite_id] + facet.offset < 0.0
            assert abs(np.linalg.norm(facet.normal) - 1.0) < 1e-12

    def test_empty_ball_random_cloud_seed42(self):
        rng = np.random.default_rng(42)
        pts = random_cloud(rng, 10, 2)
        tri = smnn.build_delaunay(pts)
        for simplex in tri.maximal:
            verts = pts[list(simplex.vertex_ids)]
            for vid in range(10):
                if vid in simplex.vertex_ids:
                    continue
                assert not circumsphere_contains(verts, pts[vid])

    def test_too_few_points(self):
        with pytest.raises(smnn.DimensionTooSmall):
            smnn.build_delaunay(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_degenerate_support(self):
        collinear = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
        with pytest.raises(smnn.DegenerateSupport):
            smnn.build_delaunay(collinear)

    def test_coincident_points_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="coincide"):
            smnn.build_delaunay(pts)

    def test_deterministic_for_fixed_ordering(self):
        rng = np.random.default_rng(3)
        pts = random_cloud(rng, 12, 2)
        a = smnn.build_delaunay(pts)
        b = smnn.build_delaunay(pts)
        assert [s.vertex_ids for s in a.maximal] == [s.vertex_ids for s in b.maximal]

    def test_face_counts(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            pts = random_cloud(rng, 14, n)
            tri = smnn.build_delaunay(pts)
            counts = {}
            for simplex in tri.maximal:
                ids = simplex.vertex_ids
                for drop in range(n + 1):
                    face = tuple(v for i, v in enumerate(ids) if i != drop)
                    counts[face] = counts.get(face, 0) + 1
            assert set(counts.values()) <= {1, 2}
            boundary_faces = sorted(f.facet_ids for f in tri.boundary)
            assert boundary_faces == sorted(f for f, c in counts.items() if c == 1)

    def test_hull_coverage(self):
        rng = np.random.default_rng(17)
        pts = random_cloud(rng, 15, 2)
        tri = smnn.build_delaunay(pts)
        for _ in range(100):
            w = rng.random(15)
            w /= w.sum()
            assert smnn.locate(tri, w @ pts) is not None

    def test_interior_disjointness(self):
        rng = np.random.default_rng(23)
        pts = random_cloud(rng, 12, 2)
        tri = smnn.build_delaunay(pts)
        for simplex in tri.maximal:
            verts = pts[list(simplex.vertex_ids)]
            for _ in range(10):
                w = 0.05 + rng.random(3)
                w /= w.sum()
                x = w @ verts
                bary = all_cells(tri, x[None])[0]
                strict = (bary > 1e-7).all(axis=1)
                assert int(strict.sum()) == 1

    def test_rigid_motion_stability(self):
        rng = np.random.default_rng(29)
        pts = random_cloud(rng, 16, 3)
        tri = smnn.build_delaunay(pts)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.standard_normal(3)
        moved = pts @ q.T + shift
        tri2 = smnn.build_delaunay(moved)
        assert [s.vertex_ids for s in tri2.maximal] == [s.vertex_ids for s in tri.maximal]
        for _ in range(25):
            w = rng.random(16)
            w /= w.sum()
            x = w @ pts
            hit = smnn.locate(tri, x)
            hit2 = smnn.locate(tri2, x @ q.T + shift)
            assert hit is not None and hit2 is not None
            assert hit2[0].vertex_ids == hit[0].vertex_ids
            assert np.abs(hit2[1] - hit[1]).max() < 1e-6


class TestBuildTriangulation:
    """build_triangulation derives the hull from the simplices alone."""

    @staticmethod
    def loop_reference(tri):
        """Hull facets and opposite vertices by counting faces cell by cell."""
        count, opposite = {}, {}
        for simplex in tri.maximal:
            ids = simplex.vertex_ids
            for drop in range(len(ids)):
                face = ids[:drop] + ids[drop + 1 :]
                count[face] = count.get(face, 0) + 1
                opposite[face] = ids[drop]
        hull = sorted(f for f, c in count.items() if c == 1)
        return hull, [opposite[f] for f in hull]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_face_map_matches_loop_reference(self, n):
        rng = np.random.default_rng(31 + n)
        pts = random_cloud(rng, 30, n)
        tri = smnn.build_delaunay(pts)
        hull, opposite = self.loop_reference(tri)
        assert [f.facet_ids for f in tri.boundary] == hull
        assert [f.opposite_id for f in tri.boundary] == opposite
        assert tri.facets.tolist() == [list(f) for f in hull]
        assert tri.opposite.tolist() == opposite
        for i, facet in enumerate(tri.boundary):
            normal, offset = reference_facet_plane(pts, list(facet.facet_ids), facet.opposite_id)
            assert tri.normals[i].tobytes() == normal.tobytes()
            assert tri.offsets[i].tobytes() == np.float64(offset).tobytes()
            assert np.array_equal(facet.normal, normal) and facet.offset == offset

    def test_rebuild_is_bit_identical(self):
        rng = np.random.default_rng(37)
        tri = smnn.build_delaunay(random_cloud(rng, 40, 3))
        again = build_triangulation(tri.cloud.points.copy(), tri.simplices.tolist())
        for name in ("simplices", "inverses", "facets", "opposite", "normals", "offsets"):
            a, b = getattr(tri, name), getattr(again, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert again.maximal == tri.maximal
        assert again.slack == tri.slack

    def test_slack_of_a_convex_hull_is_rounding(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            tri = smnn.build_delaunay(random_cloud(rng, 30, n))
            assert 0.0 < tri.slack < 1e-14

    def test_slack_measures_a_dent(self):
        # Two triangles meeting at the reflex vertex 2: vertex 3 lies
        # 4/sqrt(10) beyond the plane of the hull edge (1, 2), and vertex 1
        # as far beyond that of (2, 3).
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5], [0.0, 2.0]])
        tri = build_triangulation(pts, [[0, 1, 2], [0, 2, 3]])
        assert [tuple(f) for f in tri.facets.tolist()] == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert tri.slack == pytest.approx(4.0 / np.sqrt(10.0), rel=1e-12)

    @pytest.mark.parametrize(
        "simplices",
        [
            [[0, 1, 9]],
            [[-1, 1, 2]],
            [[1, 0, 2]],
            [[0, 1, 1]],
            [[0, 1, 2], [0, 1, 2]],
            [[1, 2, 3], [0, 1, 2]],
            [[0.0, 1.0, 2.0]],
            [[0, 1, 2, 3]],
            [],
        ],
        ids=[
            "id-out-of-range",
            "negative-id",
            "unsorted-row",
            "repeated-id",
            "duplicate-cell",
            "cells-out-of-order",
            "float-ids",
            "wrong-width",
            "no-cells",
        ],
    )
    def test_rejects_malformed_simplices(self, simplices):
        with pytest.raises(ValueError):
            build_triangulation(SQ, simplices)

    @pytest.mark.parametrize("bad", [4, -1])
    def test_range_error_names_the_bad_id(self, bad):
        with pytest.raises(ValueError, match=r"^simplex vertex id %d out of range for k=4$" % bad):
            build_triangulation(SQ, [[0, 1, 2], sorted([1, 3, bad])])

    def test_face_of_three_cells_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        with pytest.raises(smnn.SingularSimplex, match=r"\(0, 1\)"):
            build_triangulation(pts, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def reference_hull_facets(simp, n):
    """_hull_facets by one lexsort over the n id columns of the faces."""
    keep = np.array([np.delete(np.arange(n + 1), d) for d in range(n + 1)])
    faces, opposite = simp[:, keep].reshape(-1, n), simp.reshape(-1)
    order = np.lexsort(faces.T[::-1])
    faces, opposite = faces[order], opposite[order]
    same = (faces[1:] == faces[:-1]).all(axis=1)
    single = ~(np.append(same, False) | np.insert(same, 0, False))
    return faces[single], opposite[single]


class TestHullFacets:
    """_hull_facets packs the id columns of each face into as few int64 keys
    as hold them; the facets and opposite vertices are those of a lexsort
    over the columns, however many keys the ids need."""

    @staticmethod
    def lifted(n, top, seed=0):
        """The cells of a random n-D Delaunay complex, their ids mapped in
        order onto distinct random ids below top, the largest top - 1."""
        rng = np.random.default_rng(seed)
        simp = smnn.build_delaunay(smnn.PointCloud(random_cloud(rng, 12 * n, n))).simplices
        ids = np.unique(rng.integers(0, top - 1, size=4 * (int(simp.max()) + 1)))
        return np.append(np.sort(rng.choice(ids, int(simp.max()), replace=False)), top - 1)[simp]

    # (n, largest id + 1, keys): one key, then two of two columns and one,
    # three of one column each, two of three and one.
    @pytest.mark.parametrize("n, top, keys", [
        (3, 1000, 1), (3, 2**21 + 1, 2), (3, 2**40, 3), (3, 2**62, 3), (2, 2**32, 2), (4, 2**16 + 1, 2),
    ])
    def test_matches_the_column_lexsort(self, n, top, keys, monkeypatch):
        simp = self.lifted(n, top)
        assert int(simp.max()) + 1 == top
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: sorts.append(len(k)) or lexsort(k))
        got = _hull_facets(simp, n)
        monkeypatch.undo()
        want = reference_hull_facets(simp, n)
        # Most faces are shared: the pairing is tested, not only the order.
        assert sorts == [keys] and len(want[0]) < len(simp) * (n + 1) / 2
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("top", [5, 2**40])
    def test_face_of_three_cells_raises(self, top):
        cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]) * ((top - 1) // 4)
        with pytest.raises(smnn.SingularSimplex, match=r"\(0, %d\)" % ((top - 1) // 4)):
            _hull_facets(cells, 2)


@pytest.fixture(scope="module")
def iris_sweep_tri():
    """The full-support complex of the Iris split at seed 0, built as the
    iris-sweep benchmark builds it.  Two of its 175 hull facets belong to
    flat cells, whose opposite vertex lies on the facet plane."""
    train, _ = smnn.split(smnn.load_iris(), 0.75, seed=0)
    pts = train.points.points
    eps = smnn.epsilon_for_size(pts, len(np.unique(pts, axis=0)), 0)
    return smnn.fit_space(pts, smnn.epsilon_representative(pts, eps, 0)).tri


class TestFacetPlanes:
    """The stacked plane solve on a complex with flat cells; random clouds
    are checked against the same reference in TestBuildTriangulation."""

    def test_flat_cell_facets_point_away_from_the_centroid(self, iris_sweep_tri):
        tri = iris_sweep_tri
        pts = tri.cloud.points
        opposite = np.array([n @ pts[v] + c for n, v, c in zip(tri.normals, tri.opposite, tri.offsets)])
        scale = np.maximum(1.0, np.abs(pts[tri.facets]).max(axis=(1, 2)))
        assert tri.facets.shape[0] == 175
        assert np.count_nonzero(np.abs(opposite) <= 1e-12 * scale) == 2
        assert (tri.normals @ pts.mean(axis=0) + tri.offsets < 0.0).all()

    def test_planes_match_per_facet_reference(self, iris_sweep_tri):
        tri = iris_sweep_tri
        pts = tri.cloud.points
        for i, (ids, opp) in enumerate(zip(tri.facets, tri.opposite)):
            normal, offset = reference_facet_plane(pts, ids, opp)
            assert tri.normals[i].tobytes() == normal.tobytes()
            assert tri.offsets[i].tobytes() == np.float64(offset).tobytes()


@pytest.fixture(scope="module")
def iris_tri():
    data = smnn.load_iris()
    pts = np.unique(data.points.points, axis=0)
    pts = pts - pts.mean(axis=0)
    return pts, smnn.build_delaunay(smnn.PointCloud(pts))


class TestQuantizedData:
    """Coarsely rounded measurements produce exactly flat Delaunay cells."""

    def test_flat_cells_present_and_kept(self, iris_tri):
        pts, tri = iris_tri
        vols = [
            simplex_volume_normalized(pts[list(s.vertex_ids)]) for s in tri.maximal
        ]
        assert min(vols) <= 1e-12
        assert max(vols) > 1e-12

    def test_face_counts_still_consistent(self, iris_tri):
        pts, tri = iris_tri
        counts = {}
        for simplex in tri.maximal:
            ids = simplex.vertex_ids
            for drop in range(5):
                face = tuple(v for i, v in enumerate(ids) if i != drop)
                counts[face] = counts.get(face, 0) + 1
        assert set(counts.values()) <= {1, 2}
        boundary_faces = sorted(f.facet_ids for f in tri.boundary)
        assert boundary_faces == sorted(f for f, c in counts.items() if c == 1)

    def test_every_vertex_locates_as_indicator(self, iris_tri):
        pts, tri = iris_tri
        for i in range(pts.shape[0]):
            hit = smnn.locate(tri, pts[i])
            assert hit is not None
            simplex, coords = hit
            assert i in simplex.vertex_ids
            expected = np.zeros(5)
            expected[simplex.vertex_ids.index(i)] = 1.0
            assert np.abs(coords - expected).max() < 1e-7

    def test_hull_points_locate_to_nonflat_cells(self, iris_tri):
        pts, tri = iris_tri
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = rng.random(pts.shape[0])
            w /= w.sum()
            hit = smnn.locate(tri, w @ pts)
            assert hit is not None
            verts = pts[list(hit[0].vertex_ids)]
            assert simplex_volume_normalized(verts) > 1e-12


class TestBarycentricSolve:
    """The inverted vertex systems of build_triangulation are the package's
    only barycentric solve; single-cell complexes expose them directly."""

    @staticmethod
    def solve(verts, x):
        tri = build_triangulation(verts, [list(range(len(verts)))])
        return all_cells(tri, np.asarray(x, dtype=np.float64)[None])[0, 0]

    def test_vertex_identity(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        coords = self.solve(verts, verts[0])
        assert np.abs(coords - [1.0, 0.0, 0.0]).max() < 1e-12

    def test_square_interior_derived_values(self):
        # Independent oracle: direct solve of the homogeneous system.
        verts = SQ[[0, 1, 2]]
        x = np.array([0.0, -0.15])
        tmat = np.vstack([verts.T, np.ones(3)])
        oracle = np.linalg.solve(tmat, np.append(x, 1.0))
        assert np.abs(oracle - [0.3, 0.2, 0.5]).max() < 1e-12
        coords = all_cells(square_tri(), x[None])[0, 0]
        assert np.abs(coords - [0.3, 0.2, 0.5]).max() < 1e-12

    def test_virtual_simplex_thirds(self):
        verts = np.vstack([[0.0, 1.0], SQ[1], SQ[3]])
        coords = self.solve(verts, np.array([0.0, 0.5]))
        assert np.abs(coords - 1.0 / 3.0).max() < 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            for _ in range(20):
                verts = rng.standard_normal((n + 1, n))
                if simplex_volume_normalized(verts) < 1e-3:
                    continue
                x = rng.standard_normal(n)
                coords = self.solve(verts, x)
                assert abs(coords.sum() - 1.0) < 1e-9
                assert np.abs(coords @ verts - x).max() < 1e-7

    def test_singular_simplex(self):
        # A flat cell is kept with a NaN inverse, so nothing locates in it.
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        tri = build_triangulation(verts, [[0, 1, 2]])
        assert np.isnan(tri.inverses).all()
        assert smnn.locate(tri, np.array([0.5, 0.5])) is None

    def test_shape_check(self):
        with pytest.raises(ValueError):
            build_triangulation(np.zeros((3, 3)), [[0, 1, 2]])


class TestLocate:
    def test_interior_query(self):
        tri = square_tri()
        simplex, coords = smnn.locate(tri, np.array([0.0, -0.15]))
        assert simplex.vertex_ids == (0, 1, 2)
        assert np.abs(coords - [0.3, 0.2, 0.5]).max() < 1e-12

    def test_outside_returns_none(self):
        tri = square_tri()
        assert smnn.locate(tri, np.array([0.0, 0.5])) is None

    def test_vertex_indicator(self):
        tri = square_tri()
        for vid in range(4):
            simplex, coords = smnn.locate(tri, SQ[vid])
            assert vid in simplex.vertex_ids
            expected = np.zeros(3)
            expected[simplex.vertex_ids.index(vid)] = 1.0
            assert np.array_equal(coords, expected)

    def test_shared_face_lowest_index(self):
        tri = square_tri()
        # The origin sits on the diagonal shared by both simplices.
        simplex, coords = smnn.locate(tri, np.zeros(2))
        assert simplex.vertex_ids == (0, 1, 2)
        assert coords[0] == 0.0

    @pytest.mark.parametrize("shape", [(1,), (3,), (1, 2), (2, 2), ()])
    def test_query_of_another_shape_raises_dimension_mismatch(self, shape):
        with pytest.raises(smnn.DimensionMismatch, match="dimension 2"):
            smnn.locate(square_tri(), np.full(shape, 0.5))

    def test_coords_clamped_and_normalized(self):
        rng = np.random.default_rng(7)
        pts = random_cloud(rng, 10, 2)
        tri = smnn.build_delaunay(pts)
        for _ in range(50):
            w = rng.random(10)
            w /= w.sum()
            hit = smnn.locate(tri, w @ pts)
            assert hit is not None
            coords = hit[1]
            assert coords.min() >= 0.0
            assert abs(coords.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["cells", "index", "lift"])
    def test_non_finite_coordinate_lies_in_no_cell(self, kind, value):
        # Each coordinate of a cell centroid in turn, then all of them, set
        # to the value: every locator finds no cell, and leaves the finite
        # rows of the batch as they were, without a floating-point warning.
        tri = {"cells": square_tri, "index": lambda: indexed_complex(3), "lift": lambda: indexed_complex(4)}[kind]()
        assert tri.locator == kind
        n = tri.cloud.dim
        inside = tri.cloud.points[tri.simplices[-3:]].mean(axis=1)
        bad = np.repeat(inside[:1], n + 1, axis=0)
        bad[np.arange(n), np.arange(n)] = value
        bad[n] = value
        with np.errstate(invalid="warn"):
            for x in bad:
                assert smnn.locate(tri, x) is None
            index, coords = locate_batch(tri, np.concatenate([inside, bad]))
        want, want_coords = locate_batch(tri, inside)
        assert index == want + [-1] * (n + 1) and min(want) >= 0
        assert np.asarray(coords)[: len(inside)].tobytes() == np.asarray(want_coords).tobytes()


def indexed_complex(n, seed=0):
    """A Delaunay complex above INDEX_MIN_CELLS in n-D with one near-flat
    cell: its first n points span a hull facet on x_n = 0, and point n
    sits 2.5e-11 above that facet's centroid (condition number about 1e11).
    """
    rng = np.random.default_rng(seed)
    m = {2: 620, 3: 230, 4: 85, 5: 35}[n]
    facet = np.vstack([np.zeros(n), np.eye(n)[: n - 1]])
    near = np.append(facet[:, :-1].mean(axis=0), 2.5e-11)
    cloud = rng.random((m, n))
    cloud[:, -1] = 0.1 + 0.9 * cloud[:, -1]
    return smnn.build_delaunay(np.vstack([facet, near, cloud]))


def reference_locate(tri, xs):
    """The all-cells kernel: every cell's coordinates, lowest feasible
    index; also the number of feasible cells of each query."""
    index, coords, count = [], [], []
    for start in range(0, xs.shape[0], 100):
        bary = all_cells(tri, xs[start : start + 100])
        feasible = (bary >= -TAU).all(axis=2)
        first = np.argmax(feasible, axis=1)
        rows = np.arange(first.size)
        index.append(np.where(feasible[rows, first], first, -1))
        coords.append(bary[rows, first])
        count.append(feasible.sum(axis=1))
    return np.concatenate(index), np.concatenate(coords), np.concatenate(count)


def index_queries(tri, rng):
    """Queries that probe a point locator where it could go wrong."""
    pts = tri.cloud.points
    n = pts.shape[1]
    out = []
    if tri.locator == "index":
        # On bucket boundaries, and one ulp to either side.
        grid = tri.index
        x = pts.min(axis=0) + rng.random((150, n)) * np.ptp(pts, axis=0)
        snapped = grid.origin + np.round((x - grid.origin) * grid.scale) / grid.scale
        for d in range(n):
            on = x.copy()
            on[:, d] = snapped[:, d]
            out += [on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)]
        out.append(snapped)
        # At the edge of the padded global box, and one ulp beyond.
        usable = np.isfinite(tri.inverses).all(axis=(1, 2))
        low, high = -grid.bounds[usable, :n].max(axis=0), grid.bounds[usable, n:].max(axis=0)
        for d in range(n):
            for edge, beyond in ((low, -np.inf), (high, np.inf)):
                at = pts[np.argsort(np.abs(pts[:, d] - edge[d]))[:5]].copy()
                at[:, d] = edge[d]
                out += [at, np.nextafter(at, beyond)]
    # Exactly on shared faces, and one ulp to either side; at the vertices.
    for ids in tri.simplices[rng.choice(tri.simplices.shape[0], 200)]:
        w = rng.random(n) + 0.1
        on = w / w.sum() @ pts[np.delete(ids, rng.integers(n + 1))]
        out.append(np.stack([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)]))
    out.append(pts)
    # Vertices pushed along each axis by a few TAU-scale distances: inside
    # a neighbouring cell's slack but outside its unpadded box.
    for t in (1e-13, 1e-11, 1e-10, 1e-9):
        for d in range(n):
            for sign in (1.0, -1.0):
                moved = pts[rng.choice(pts.shape[0], 40)].copy()
                moved[:, d] += sign * t * np.ptp(pts[:, d])
                out.append(moved)
    # Outside the hull.
    out.append(pts.min(axis=0) - 0.5 + 2.0 * rng.random((200, n)))
    # Inside the near-flat cell.
    flat = pts[: n + 1]
    w = rng.random((50, n + 1)) + 0.05
    out += [(w / w.sum(axis=1, keepdims=True)) @ flat, flat.mean(axis=0)[None]]
    return np.concatenate(out)


def reference_pairs(grid, xs):
    """The pairs of CellIndex.pairs by fancy-index row gathers and a
    short-axis .all: the cells of each query's bucket list whose box holds
    it."""
    lists = [grid.cells[grid.start[b] : grid.start[b + 1]] for b in grid.buckets(xs).tolist()]
    qs = np.repeat(np.arange(xs.shape[0]), [cells.size for cells in lists])
    cand = np.concatenate([grid.cells[:0]] + lists)
    inside = (np.concatenate([-xs, xs], axis=1)[qs] <= grid.bounds[cand]).all(axis=1)
    return qs[inside], cand[inside]


def reference_lift_pairs(screen, h):
    """The pairs of LiftScreen.pairs on finite rows, with each block's
    mask read by a 2-D np.nonzero."""
    cells = screen.planes.shape[1] // 2
    slop = np.abs(h).max(axis=1) * screen.slop
    step = max(1, (1 << 17) // cells)
    qs, cand = [], []
    for a in range(0, h.shape[0], step):
        both = h[a : a + step] @ screen.planes
        bar = both[:, :cells].max(axis=1) - slop[a : a + step]
        q, s = np.nonzero(both[:, cells:] >= bar[:, None])
        qs.append(q + a)
        cand.append(s)
    return np.concatenate(qs), np.concatenate(cand)


def assert_locates_as_all_cells(tri, queries):
    """locate_batch gives the index and coordinate bits of the all-cells
    kernel; returns the reference index and feasible-cell counts."""
    got, coords = locate_batch(tri, queries)
    want, want_coords, n_feasible = reference_locate(tri, queries)
    assert got == want.tolist()
    hit = want >= 0
    assert np.asarray(coords)[hit].tobytes() == want_coords[hit].tobytes()
    return want, n_feasible


class TestCellIndex:
    """locate_batch through the bucket index (below SCREEN_MIN_DIM) or the
    lift screen against the all-cells kernel."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bit_identical_to_all_cells_kernel(self, n):
        tri = indexed_complex(n)
        assert tri.simplices.shape[0] >= INDEX_MIN_CELLS
        assert tri.locator == ("index" if n < SCREEN_MIN_DIM else "lift")
        cond = np.linalg.cond(tri.inverses[0])
        assert 1e10 < cond < 1e12
        queries = index_queries(tri, np.random.default_rng(n))
        want, n_feasible = assert_locates_as_all_cells(tri, queries)

        # The queries reach what exactness depends on: located queries
        # outside the unpadded box of their cell (the padding), queries
        # with several feasible cells (the lowest-index rule), and queries
        # in the near-flat cell 0.
        hit = want >= 0
        verts = tri.cloud.points[tri.simplices[want[hit]]]
        x = queries[hit]
        outside = ((x < verts.min(axis=1)) | (x > verts.max(axis=1))).any(axis=1)
        assert outside.sum() >= 5
        assert (n_feasible > 1).sum() >= 20
        assert (want == 0).sum() >= 20
        assert (want < 0).sum() >= 50

    @pytest.mark.parametrize("n", [2, 3])
    def test_pairs_match_the_row_gather_reference(self, n):
        # The probing queries, rows off the grid on every side, and rows
        # with NaN or infinite coordinates give the same pairs, in the same
        # order, as the reference.
        tri = indexed_complex(n)
        rng = np.random.default_rng(n)
        pts = tri.cloud.points
        off = pts.min(axis=0) + (3.0 * rng.random((300, n)) - 1.0) * np.ptp(pts, axis=0)
        odd = pts[rng.integers(0, pts.shape[0], 90)]
        odd[np.arange(90), rng.integers(0, n, 90)] = np.repeat([np.nan, np.inf, -np.inf], 30)
        xs = np.concatenate([index_queries(tri, rng), off, odd, np.full((1, n), np.nan)])
        qs, cand = tri.index.pairs(np.concatenate([xs, np.ones((xs.shape[0], 1))], axis=1))
        want_qs, want_cand = reference_pairs(tri.index, xs)
        assert qs.dtype == want_qs.dtype and np.array_equal(qs, want_qs)
        assert cand.dtype == want_cand.dtype and np.array_equal(cand, want_cand)
        assert qs.size >= 1000 and not np.isin(np.flatnonzero(np.isnan(xs).any(axis=1)), qs).any()

    def test_thin_support_keeps_index_linear(self):
        # A needle along the x axis: its cells' boxes are long and thin,
        # and at the mean-volume bucket side each would be listed in about
        # 200 buckets.  The grid coarsens until buckets and list entries
        # stay linear in the cell count, and location stays exact.
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.random(900), 1e-5 * rng.standard_normal((900, 2))])
        tri = smnn.build_delaunay(pts)
        cells = tri.simplices.shape[0]
        assert tri.index.start.size - 1 <= 4 * cells and tri.index.cells.size <= 64 * cells
        queries = pts[rng.integers(0, 900, 300)] + 1e-6 * rng.standard_normal((300, 3))
        got, coords = locate_batch(tri, queries)
        want, want_coords, _ = reference_locate(tri, queries)
        assert got == want.tolist()
        assert coords[want >= 0].tobytes() == want_coords[want >= 0].tobytes()

    def test_small_complex_tests_every_cell(self, monkeypatch):
        # A complex below INDEX_MIN_CELLS cells carries a locator from
        # LOCATOR_MIN_CELLS cells on, but a call tests every cell while its
        # rows times cells stay below INDEX_MIN_CELLS: one row always, and
        # from the cut on a batch goes through the index.  Below
        # LOCATOR_MIN_CELLS there is no locator, and every call tests every
        # cell.  locate_batch searches as tri.search says.
        searched = []
        real = CellIndex.pairs

        def pairs(index, h):
            searched.append(h.shape[0])
            return real(index, h)

        monkeypatch.setattr(CellIndex, "pairs", pairs)
        rng = np.random.default_rng(3)
        # A 5 x 5 grid of squares cut along one diagonal: 32 cells, so that
        # a call of 32 rows meets the cut exactly.
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij"), axis=-1).reshape(-1, 2)
        corner = (5 * np.arange(4)[:, None] + np.arange(4)).ravel()
        cuts = np.concatenate([
            np.stack([corner, corner + 1, corner + 6], 1), np.stack([corner, corner + 5, corner + 6], 1)
        ])
        squares = build_triangulation(grid, cuts[np.lexsort(cuts.T[::-1])])
        assert squares.simplices.shape[0] == 32 and squares.facets.shape[0] == 16
        for tri, locator in (
            (smnn.build_delaunay(random_cloud(rng, 40, 2)), "index"),
            (squares, "index"),
            (smnn.build_delaunay(random_cloud(rng, 12, 2)), "cells"),
        ):
            cells = tri.simplices.shape[0]
            assert (cells >= LOCATOR_MIN_CELLS) == (locator == "index") and cells < INDEX_MIN_CELLS
            assert tri.locator == locator and (tri.index is None) == (locator == "cells")
            cut = -(-INDEX_MIN_CELLS // cells)
            for rows in (1, cut - 1, cut, 513):
                want = "cells" if rows < cut else locator
                assert tri.search(rows) == want
                del searched[:]
                xs = rng.random((rows, 2))
                assert_locates_as_all_cells(tri, xs)
                assert searched == ([rows] if want == "index" else [])

    def test_index_lists_usable_cells_in_ascending_order(self):
        tri = indexed_complex(3)
        grid = tri.index
        usable = np.isfinite(tri.inverses).all(axis=(1, 2))
        assert set(grid.cells.tolist()) == set(np.flatnonzero(usable).tolist())
        for a, b in zip(grid.start[:-1].tolist(), grid.start[1:].tolist()):
            assert (np.diff(grid.cells[a:b]) > 0).all()


class TestLiftScreen:
    """locate_batch through the lift screen, from SCREEN_MIN_DIM dimensions
    up, against the all-cells kernel."""

    @staticmethod
    def lattice(seed=1):
        # Points of a 5^4 grid scaled by 0.1: every small group of them is
        # co-spherical, so the complex rests on the degeneracy shift.
        rng = np.random.default_rng(seed)
        return smnn.build_delaunay(np.unique(rng.integers(0, 5, (110, 4)), axis=0) * 0.1)

    @pytest.mark.parametrize("cloud", ["iris", "lattice"])
    def test_quantized_ties_bit_identical(self, cloud, iris_tri):
        tri = iris_tri[1] if cloud == "iris" else self.lattice()
        assert tri.simplices.shape[0] >= INDEX_MIN_CELLS and tri.locator == "lift"
        pts = tri.cloud.points
        rng = np.random.default_rng(11)
        # Midpoints of nearby points lie on faces shared by tied cells.
        near = np.argsort(((pts[:, None] - pts[None]) ** 2).sum(axis=2), axis=1)[:, 1:4]
        mid = 0.5 * (pts[:, None] + pts[near]).reshape(-1, pts.shape[1])
        queries = np.concatenate([index_queries(tri, rng), mid])
        want, n_feasible = assert_locates_as_all_cells(tri, queries)
        assert (n_feasible > 2).sum() >= 100
        assert (want >= 0).sum() >= 1000

    def test_screen_keeps_the_cell_of_a_non_delaunay_complex(self):
        # A kite split along its long diagonal AB: C lies inside the
        # circumcircle of ABD and D inside that of ABC, so the lifted plane
        # of the other cell is the higher one over each cell.
        pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.3], [0.0, -0.3]])
        tri = build_triangulation(pts, [[0, 1, 2], [0, 1, 3]])
        tmat = np.concatenate([np.transpose(pts[tri.simplices], (0, 2, 1)), np.ones((2, 1, 3))], axis=1)
        sv = np.linalg.svd(tmat, compute_uv=False)
        screened = dataclasses.replace(
            tri,
            index=_lift_screen(
                pts, tri.simplices, _coordinate_slack(sv[:, 0] / sv[:, -1], 2), tri.inverses, np.ones(2, dtype=bool)
            ),
        )
        assert screened.locator == "lift"
        rng = np.random.default_rng(4)
        w = rng.random((400, 3))
        cells = pts[tri.simplices[rng.integers(0, 2, 400)]]
        inside = np.einsum("qi,qid->qd", w / w.sum(axis=1, keepdims=True), cells)
        edge = rng.random((50, 1)) * pts[0] + (1 - rng.random((50, 1))) * pts[1]
        queries = np.concatenate([inside, edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf), pts])
        # On two cells only a call of INDEX_MIN_CELLS / 2 rows or more goes
        # through the screen.
        assert screened.search(len(queries)) == "lift"
        want, _ = assert_locates_as_all_cells(screened, queries)
        lift = np.einsum("sij,si->sj", tri.inverses, (pts**2).sum(axis=1)[tri.simplices])
        top = np.argmax(np.concatenate([queries, np.ones((len(queries), 1))], axis=1) @ lift.T, axis=1)
        assert ((want >= 0) & (top != want)).sum() >= 300

    def test_screen_keeps_a_cell_whose_slack_is_far_above_the_typical(self):
        # Cell 0 = ABP carries a stored inverse whose coordinates are off
        # by eta = 1e-6, as its stated condition number of 1e8 allows: the
        # TAU test accepts it for points up to eta below AB, inside cell 1
        # = ABQ.  The error leaves its lifted plane alone (the two changed
        # rows cancel against the equal lifts of A and P), so only the pad
        # term (A + M) n max(delta_s - D, 0) lifts its plane over that of
        # ABQ, which rises by 1.5 eta/2 there, far above ABQ's drop of
        # about 5 TAU.
        pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -2.0], [2.0, -1.0]])
        tri = build_triangulation(pts, [[0, 1, 2], [0, 1, 3], [1, 3, 4]])
        eta = 1e-6
        inverses = tri.inverses.copy()
        inverses[0, 0, 2] -= eta
        inverses[0, 2, 2] += eta
        tmat = np.concatenate([np.transpose(pts[tri.simplices], (0, 2, 1)), np.ones((3, 1, 3))], axis=1)
        sv = np.linalg.svd(tmat, compute_uv=False)
        sv[0] = [1e8, 1.0, 1.0]
        screened = dataclasses.replace(
            tri, inverses=inverses,
            index=_lift_screen(
                pts, tri.simplices, _coordinate_slack(sv[:, 0] / sv[:, -1], 2), inverses, np.ones(3, dtype=bool)
            ),
        )
        rng = np.random.default_rng(8)
        below = np.stack([rng.uniform(-0.5, 0.5, 300), -eta * rng.uniform(0.05, 1.0, 300)], axis=1)
        inside = np.einsum("qi,qid->qd", rng.dirichlet(np.ones(3), 300), pts[tri.simplices[rng.integers(0, 3, 300)]])
        queries = np.concatenate([below, inside])
        assert screened.search(len(queries)) == "lift"
        want, _ = assert_locates_as_all_cells(screened, queries)
        assert (want[:300] == 0).sum() >= 250

    def test_pairs_match_the_two_dimensional_nonzero(self, iris_tri):
        # A batch of several blocks of rows: the flat mask indices give the
        # pairs of np.nonzero, in the same row-major order and dtype.
        tri = iris_tri[1]
        queries = index_queries(tri, np.random.default_rng(12))
        h = np.concatenate([queries, np.ones((len(queries), 1))], axis=1)
        assert h.shape[0] > 4 * ((1 << 17) // tri.simplices.shape[0])
        got, want = tri.index.pairs(h), reference_lift_pairs(tri.index, h)
        assert want[0].size > h.shape[0]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_few_candidates_at_any_scale(self, scale, iris_tri):
        # Points inside random cells of the Iris support keep a median of
        # one candidate cell.  The coordinate slack grows as the support
        # is scaled up or down; the margin follows it, so the count does
        # not.
        tri = smnn.build_delaunay(iris_tri[0] * scale)
        cells = tri.simplices.shape[0]
        rng = np.random.default_rng(0)
        w = rng.random((300, 5))
        corners = tri.cloud.points[tri.simplices[rng.choice(cells, 300)]]
        xs = np.einsum("qi,qid->qd", w / w.sum(axis=1, keepdims=True), corners)
        qs, _ = tri.index.pairs(np.concatenate([xs, np.ones((300, 1))], axis=1))
        per_query = np.bincount(qs, minlength=300)
        assert np.median(per_query) == 1 and per_query.max() <= 20
        assert_locates_as_all_cells(tri, xs)


class TestLocatorChoice:
    """Each benchmark complex takes the search it was measured with, for one
    row and for a batch (scripts/sweep.py locate)."""

    @staticmethod
    def support_space(data, size):
        pts = smnn.split(data, 0.75, seed=0)[0].points.points
        size = size or len(np.unique(pts, axis=0))
        eps = smnn.epsilon_for_size(pts, size, 0)
        return smnn.fit_space(pts, smnn.epsilon_representative(pts, eps, 0))

    def test_benchmark_supports(self):
        # One row, a held-out evaluate batch of 100 and a location chunk.
        spiral = smnn.gen_spiral(400, seed=0)
        for data, size, one, batch in (
            (spiral, 5, "cells", "cells"),
            (spiral, 9, "cells", "cells"),
            (spiral, 95, "cells", "index"),
            (smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), 1000, "index", "index"),
            (smnn.load_iris(), None, "lift", "lift"),
        ):
            tri = self.support_space(data, size).tri
            assert [tri.search(rows) for rows in (1, 100, 512)] == [one, batch, batch]
            assert tri.locator == batch
            assert (tri.cloud.dim >= SCREEN_MIN_DIM) == (batch == "lift")

    @pytest.mark.parametrize("size", [5, 9, 95])
    def test_spiral_supports_keep_the_all_cells_bits(self, size, monkeypatch):
        # Vertex, shared-face, exterior and NaN rows, located in calls of
        # rows on both sides of the cut, give the bits of the all-cells
        # kernel; embedded in 513 rows (two location chunks) or fewer, they
        # give the bits of xi, which locates one row at a time.
        space = self.support_space(smnn.gen_spiral(400, seed=0), size)
        tri = space.tri
        cells = tri.simplices.shape[0]
        rng = np.random.default_rng(size)
        xs = index_queries(tri, rng)
        rng.shuffle(xs)
        odd = xs[:30].copy()
        odd[np.arange(30), rng.integers(0, 2, 30)] = np.nan
        queries = np.concatenate([odd, xs])
        want, want_coords, _ = reference_locate(tri, queries)
        cut = -(-INDEX_MIN_CELLS // cells)
        searches = set()
        for rows in (1, cut - 1, cut, 513):
            got, coords = [], []
            for a in range(0, len(queries), rows):
                searches.add(tri.search(len(queries[a : a + rows])))
                index, raw = locate_batch(tri, queries[a : a + rows])
                got += index
                coords.append(np.asarray(raw))
            assert got == want.tolist()
            hit = want >= 0
            assert np.concatenate(coords)[hit].tobytes() == want_coords[hit].tobytes()
        assert searches == ({"cells", "index"} if cells >= LOCATOR_MIN_CELLS else {"cells"})
        assert min(want) < 0 <= max(want) and np.isnan(queries).any(axis=1).sum() == 30

        raw = xs + space.centroid
        singles = [smnn.xi(space, x) for x in raw]
        located = []
        real = smnn.embedding.locate_batch

        def counted(tri, rows):
            located.append(tri.search(len(rows)))
            return real(tri, rows)

        monkeypatch.setattr(smnn.embedding, "locate_batch", counted)
        for rows in (cut - 1, cut, 513):
            for a in range(0, len(raw), rows):
                batch = smnn.embedding.embed_batch(space, raw[a : a + rows])
                assert all(same_bits(got, x) for got, x in zip(batch.rows(), singles[a : a + rows]))
        assert set(located) == searches
        assert any(x.facet_used is not None for x in singles) and any(x.facet_used is None for x in singles)


def flat_cell(widths, kappa, rotation):
    """The n+1 points of a cell whose vertex system has a condition number
    of about kappa: a regular (n-1)-simplex of n points centred at the
    origin of x_n = 0, its coordinate rows stretched to the given norms,
    and an apex above its centroid, all turned by rotation.  Rows of norm
    sqrt(n+1), the norm of the row of ones, make |T|_F |T^-1|_F about
    sqrt(n) times the condition number, and one long row about equal to
    it; kappa = inf puts the apex on the facet."""
    n = len(widths) + 1
    basis = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, : n - 1]

    def points(h):
        facet = np.hstack([basis * widths, np.zeros((n, 1))])
        return np.vstack([facet, np.append(np.zeros(n - 1), h)]) @ rotation.T

    sv = np.linalg.svd(np.vstack([points(1e-4).T, np.ones(n + 1)]), compute_uv=False)
    return points(1e-4 * sv[0] / sv[-1] / kappa)


def conditioning_complex(n, cells, seed=0):
    """indexed_complex(n) with extra cells, each (kind, kappa) for flat_cell,
    after it in the cell list: "even" cells have n equal large singular
    values, "long" ones one, and "singular" is an even cell with its apex
    exactly on its facet (a zero row in T).  The extra cells overlap the
    complex and each other, which build_triangulation allows."""
    base = indexed_complex(n, seed)
    rng = np.random.default_rng(seed)
    points, simplices = [base.cloud.points], [base.simplices]
    m = base.cloud.points.shape[0]
    for kind, kappa in cells:
        widths = np.full(n - 1, np.sqrt(n + 1.0))
        if kind == "long":
            widths[0] = 1e4
        rotation = np.linalg.qr(rng.standard_normal((n, n)))[0] if kind != "singular" else np.eye(n)
        points.append(flat_cell(widths, np.inf if kind == "singular" else kappa, rotation))
        simplices.append(m + np.arange(n + 1)[None])
        m += n + 1
    return np.vstack(points), np.vstack(simplices)


def svd_reference(pts, simp):
    """The inverses of the rule that takes every cell's singular values
    (usable when sv[-1] * COND_LIMIT > sv[0], NaN blocks for the others),
    and each cell's ratio sv[0] / sv[-1]."""
    tmat = np.concatenate([np.transpose(pts[simp], (0, 2, 1)), np.ones((len(simp), 1, simp.shape[1]))], axis=1)
    sv = np.linalg.svd(tmat, compute_uv=False)
    usable = sv[:, -1] * COND_LIMIT > sv[:, 0]
    inverses = np.full_like(tmat, np.nan)
    inverses[usable] = np.linalg.inv(tmat[usable])
    with np.errstate(divide="ignore"):
        return inverses, sv[:, 0] / sv[:, -1]


def exact_bound_holds(tmat, inverses, kappa):
    """Whether each finite kappa is at least F / (1 - cF) in exact rational
    arithmetic, F = |T|_F |X|_F of the stored floats of the system T and
    its inverse X and c = 64 (n+1)^2 u: the bound _condition proves on
    cond_2(T).  kappa >= F / (1 - cF) holds exactly when
    kappa^2 >= F^2 (1 + c kappa)^2."""
    c = Fraction(64 * tmat.shape[1] ** 2) * Fraction(np.finfo(np.float64).eps) / 2
    out = []
    for t, x, k in zip(tmat.tolist(), inverses.tolist(), kappa.tolist()):
        if np.isfinite(k):
            f2 = sum(Fraction(v) ** 2 for row in t for v in row) * sum(Fraction(v) ** 2 for row in x for v in row)
            k = Fraction(k)
            out.append(k * k >= f2 * (1 + c * k) ** 2)
    return np.array(out, dtype=bool)


class TestConditioning:
    """build_triangulation bounds each cell's condition number from its
    inverse (_condition) and calls a cell usable when that bound is below
    COND_LIMIT.  The bound is at least the cell's singular-value ratio, so
    every usable cell passes the SVD rule, at any scale; the worst
    condition number reported is the largest bound of a usable cell."""

    # Condition numbers in units of COND_LIMIT, around the limit: below
    # it, within a factor n+1 of it on both sides, and past that.
    BAND = [0.3, 0.4, 0.5, 0.7, 0.95, 0.99, 1.01, 1.05, 1.5, 2.5, 4.0, 8.0, 40.0, 1e4]

    @staticmethod
    def usability_cells(n):
        even = [("even", r * COND_LIMIT) for r in TestConditioning.BAND]
        return even + [("long", 0.99 * COND_LIMIT), ("long", 1.01 * COND_LIMIT), ("singular", None)]

    @staticmethod
    def worst_cells(n):
        # The worst usable cell by its singular values is a long one, while
        # an even cell of a smaller condition number has the larger
        # |T|_F |T^-1|_F; long cells from 1e9 to 1e11 have that product
        # within rounding of their condition number.
        return [("long", 3e11), ("even", 2.5e11)] + [("long", k) for k in np.geomspace(1e9, 1e11, 8)]

    @staticmethod
    def assert_bound_rule(pts, simp):
        """The one rule on a complex, against every cell's singular values;
        the complex, each cell's bound and singular-value ratio."""
        tri = build_triangulation(pts, simp)
        tmat = _cell_systems(pts, simp)
        inverses, kappa = _condition(tmat)
        ratio = svd_reference(pts, simp)[1]
        usable = kappa < COND_LIMIT
        assert np.array_equal(np.isnan(tri.inverses).any(axis=(1, 2)), ~usable)
        solved = np.linalg.slogdet(tmat)[0] != 0
        assert np.isinf(kappa[~solved]).all()
        assert (kappa[solved] >= ratio[solved]).all()
        assert exact_bound_holds(tmat, inverses, kappa).all()
        assert (ratio[usable] < COND_LIMIT).all()
        assert tri.cond == kappa[usable].max()
        want = np.full_like(tmat, np.nan)
        want[usable] = np.linalg.inv(tmat[usable])
        assert tri.inverses.tobytes() == want.tobytes()
        # The reach and the locator's pads read the bound, so they hold at
        # least what the singular-value ratios would give.
        assert tri.reach >= _reach(pts, _coordinate_slack(ratio, pts.shape[1])[usable])
        return tri, kappa, ratio

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_usability_band_matches_the_svd(self, n, scale):
        pts, simp = conditioning_complex(n, self.usability_cells(n))
        tri, kappa, ratio = self.assert_bound_rule(pts * scale, simp)
        if scale != 1.0:
            return
        # The extra cells reach every side of the limit: usable cells with
        # a bound near it, cells the SVD rule would keep whose bound is
        # past it (within a factor n+1), cells past it either way, and one
        # exactly singular cell.
        usable = np.isfinite(tri.inverses).all(axis=(1, 2))
        assert ((kappa > 0.5 * COND_LIMIT) & usable).sum() >= 2
        assert ((ratio < COND_LIMIT) & ~usable).sum() >= 2
        assert ((ratio > COND_LIMIT) & np.isfinite(ratio)).sum() >= 2
        unsolved = np.isnan(_condition(_cell_systems(pts, simp))[0]).all(axis=(1, 2))
        assert np.flatnonzero(unsolved).tolist() == [len(simp) - 1]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("n", [2, 3])
    def test_worst_condition_band_holds_the_worst_cell(self, n, scale):
        pts, simp = conditioning_complex(n, self.worst_cells(n), seed=1)
        tri, kappa, ratio = self.assert_bound_rule(pts * scale, simp)
        usable = np.isfinite(tri.inverses).all(axis=(1, 2))
        assert ratio[usable].max() <= tri.cond <= (n + 1) * ratio[usable].max()
        if scale != 1.0:
            return
        # Every cell is usable, and the worst by its singular values is not
        # the one of the largest bound, which is the one reported.
        first = len(indexed_complex(n, 1).simplices)
        assert usable.all()
        assert np.argmax(ratio) == first and np.argmax(kappa) == first + 1
        assert tri.cond == kappa[first + 1] > ratio[first]

    @pytest.mark.parametrize("name", ["spiral 5", "spiral 9", "spiral 95", "clusters 1,000", "Iris full"])
    def test_benchmark_complexes_keep_the_svd_cells(self, name):
        # On the benchmark supports the bound rule keeps the cells and
        # inverses of the rule that takes every cell's singular values.
        spiral = smnn.gen_spiral(400, seed=0)
        data, size = {
            "spiral 5": (spiral, 5),
            "spiral 9": (spiral, 9),
            "spiral 95": (spiral, 95),
            "clusters 1,000": (smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), 1000),
            "Iris full": (smnn.load_iris(), None),
        }[name]
        tri = TestLocatorChoice.support_space(data, size).tri
        pts, simp = tri.cloud.points, tri.simplices
        self.assert_bound_rule(pts, simp)
        assert tri.inverses.tobytes() == svd_reference(pts, simp)[0].tobytes()

    def test_a_singular_cell_sends_only_its_block_to_slogdet(self, monkeypatch):
        block = smnn.geometry._CONDITION_BLOCK
        rng = np.random.default_rng(0)
        cells = 3 * block + 7
        tmat = np.concatenate([rng.standard_normal((cells, 3, 4)), np.ones((cells, 1, 4))], axis=1)
        singular = [block + 5, block + 6]
        tmat[singular, 0] = 0.0
        others = np.setdiff1d(np.arange(cells), singular)
        sizes = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: sizes.append(len(a)) or slogdet(a))
        inverses, kappa = _condition(tmat)
        clean = _condition(tmat[others])
        assert sizes == [block]
        assert np.isnan(inverses[singular]).all() and np.isinf(kappa[singular]).all()
        assert inverses[others].tobytes() == clean[0].tobytes() == np.linalg.inv(tmat[others]).tobytes()
        assert kappa[others].tobytes() == clean[1].tobytes() and np.isfinite(clean[1]).all()

    def test_a_bound_at_the_limit_is_not_usable(self, monkeypatch):
        pts, simp = SQUARE_POINTS, square_tri().simplices
        kappa = _condition(_cell_systems(pts, simp))[1]
        monkeypatch.setattr(smnn.geometry, "COND_LIMIT", kappa[0])
        assert np.isnan(build_triangulation(pts, simp).inverses[0]).all()
        monkeypatch.setattr(smnn.geometry, "COND_LIMIT", np.nextafter(kappa[0], np.inf))
        assert np.isfinite(build_triangulation(pts, simp).inverses[0]).all()


class TestVisibleFacets:
    """A query sees the facets with N.x + c > 0, read off the plane arrays."""

    @staticmethod
    def indices(tri, x):
        return np.flatnonzero(tri.normals @ np.asarray(x, dtype=np.float64) + tri.offsets > 0.0)

    def visible(self, tri, x):
        return [tuple(ids) for ids in tri.facets[self.indices(tri, x)].tolist()]

    def test_top_facet_from_above(self):
        assert self.visible(square_tri(), [0.0, 0.5]) == [(1, 3)]

    def test_single_facet_midpoint(self):
        tri = smnn.build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert self.visible(tri, [0.5, -0.2]) == [(0, 1)]

    def test_two_facets_beyond_corner(self):
        assert self.visible(square_tri(), [0.6, 0.6]) == [(1, 3), (2, 3)]

    def test_interior_sees_none(self):
        indices = self.indices(square_tri(), np.array([0.0, -0.15]))
        assert indices.size == 0


class TestCircumsphere:
    def test_right_triangle_center(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        center, radius_sq = circumsphere(verts)
        assert np.abs(center - [0.5, 0.5]).max() < 1e-12
        assert abs(radius_sq - 0.5) < 1e-12

    def test_containment_cases(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        # The circumcenter itself is strictly inside.
        assert circumsphere_contains(verts, np.array([0.5, 0.5]))
        # A vertex sits on the sphere: strict containment fails.
        assert not circumsphere_contains(verts, np.array([1.0, 1.0]))
        assert not circumsphere_contains(verts, np.array([2.0, 2.0]))

    def test_singular(self):
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(smnn.SingularSimplex):
            circumsphere(verts)

    def test_empty_ball_property_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n + 2, 13))
            pts = random_cloud(rng, m, n)
            tri = smnn.build_delaunay(pts)
            for simplex in tri.maximal:
                verts = pts[list(simplex.vertex_ids)]
                for vid in range(m):
                    if vid in simplex.vertex_ids:
                        continue
                    assert not circumsphere_contains(verts, pts[vid])


class TestClamp:
    def test_small_values_zeroed(self):
        coords = clamp_coords(np.array([1.0 - 2e-16, 3e-16, -4e-10]))
        assert np.array_equal(coords, [1.0, 0.0, 0.0])

    def test_renormalizes(self):
        coords = clamp_coords(np.array([0.6, 0.5, -1e-10]))
        assert abs(coords.sum() - 1.0) < 1e-15
        assert coords[2] == 0.0

    @pytest.mark.parametrize("bad", [[0.5, -0.5, 0.0], [0.2, -0.7, 0.1], [3e-10, -4e-10, 0.0], [0.0, 0.0, 0.0]])
    def test_row_that_sums_to_zero_or_less_raises(self, bad):
        # Renormalizing would divide by zero or flip the signs, and leave a
        # NaN or negative row; alone or in a batch, it raises instead.
        with pytest.raises(smnn.SingularSimplex, match="summing to"):
            clamp_coords(np.array(bad))
        with pytest.raises(smnn.SingularSimplex, match="summing to"):
            clamp_coords(np.array([[0.3, 0.3, 0.4], bad]))

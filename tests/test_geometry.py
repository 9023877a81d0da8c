"""Triangulation, barycentric and circumsphere behavior."""

import numpy as np
import pytest

import smnn
from smnn.geometry import _facet_plane, build_triangulation, clamp_coords, visible_facet_indices

from conftest import (
    SQUARE_POINTS,
    circumsphere,
    circumsphere_contains,
    random_cloud,
    simplex_volume_normalized,
)

# Translated square vertices in row order (centroid removed).
SQ = SQUARE_POINTS - SQUARE_POINTS.mean(axis=0)


def square_tri():
    return smnn.build_delaunay(smnn.PointCloud(SQ))


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
                bary = tri.barycentric_batch(x[None])[0]
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

    @pytest.mark.parametrize("n", [2, 3, 4])
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
            normal, offset = _facet_plane(pts, list(facet.facet_ids), facet.opposite_id)
            assert np.array_equal(tri.normals[i], normal) and tri.offsets[i] == offset
            assert np.array_equal(facet.normal, normal) and facet.offset == offset

    def test_rebuild_is_bit_identical(self):
        rng = np.random.default_rng(37)
        tri = smnn.build_delaunay(random_cloud(rng, 40, 3))
        again = build_triangulation(tri.cloud.points.copy(), tri.simplices.tolist())
        for name in ("simplices", "inverses", "facets", "opposite", "normals", "offsets"):
            a, b = getattr(tri, name), getattr(again, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert again.maximal == tri.maximal

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

    def test_face_of_three_cells_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        with pytest.raises(smnn.SingularSimplex, match=r"\(0, 1\)"):
            build_triangulation(pts, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])


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
        return tri.barycentric_batch(np.asarray(x, dtype=np.float64)[None])[0, 0]

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
        coords = square_tri().barycentric_batch(x[None])[0, 0]
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


class TestVisibleFacets:
    @staticmethod
    def visible(tri, x):
        return [tri.boundary[i].facet_ids for i in visible_facet_indices(tri, np.asarray(x))]

    def test_top_facet_from_above(self):
        assert self.visible(square_tri(), [0.0, 0.5]) == [(1, 3)]

    def test_single_facet_midpoint(self):
        tri = smnn.build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert self.visible(tri, [0.5, -0.2]) == [(0, 1)]

    def test_two_facets_beyond_corner(self):
        assert self.visible(square_tri(), [0.6, 0.6]) == [(1, 3), (2, 3)]

    def test_interior_sees_none(self):
        indices = visible_facet_indices(square_tri(), np.array([0.0, -0.15]))
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

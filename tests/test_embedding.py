"""Embedding space fit and the sparse barycentric map."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import smnn
from smnn import embedding
from smnn.embedding import embed_translated
from smnn.geometry import TAU, clamp_coords

from conftest import (
    SQUARE_MARGIN,
    SQUARE_POINTS,
    jittered_grid,
    random_cloud,
    reference_xi_outside,
    same_bits,
)


class TestFitSpace:
    def test_square_example(self, square_space):
        assert np.abs(square_space.centroid - 0.75).max() < 1e-15
        expected = np.array([[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25], [0.25, 0.25]])
        assert np.abs(square_space.support.points - expected).max() < 1e-15
        assert abs(square_space.radius - 1.0) < 1e-12

    def test_radius_strictly_covers_support(self):
        rng = np.random.default_rng(0)
        pts = random_cloud(rng, 20, 3)
        space = smnn.fit_space(pts, list(range(20)), radius_margin=0.5)
        norms = np.linalg.norm(space.support.points, axis=1)
        assert space.radius > norms.max()
        assert abs(space.radius - (norms.max() + 0.5)) < 1e-12

    def test_radius_uses_full_training_set(self):
        rng = np.random.default_rng(1)
        pts = random_cloud(rng, 30, 2, spread=4.0)
        support = list(range(10))
        space = smnn.fit_space(pts, support, radius_margin=1.0)
        translated = pts - pts.mean(axis=0)
        assert abs(space.radius - (np.linalg.norm(translated, axis=1).max() + 1.0)) < 1e-12

    def test_invalid_margin(self):
        for margin in (0.0, float("nan"), float("inf")):
            with pytest.raises(smnn.InvalidMargin):
                smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=margin)

    def test_bad_support_indices(self):
        with pytest.raises(ValueError):
            smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 2], radius_margin=1.0)
        with pytest.raises(ValueError):
            smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 7], radius_margin=1.0)
        with pytest.raises(ValueError):
            smnn.fit_space(SQUARE_POINTS, [], radius_margin=1.0)

    @pytest.mark.parametrize("support", [
        [0.9, 1.7, 2.2, 3.99],
        [True, False, 2, 3],
        np.array([0.0, 1.0, 2.0, 3.0]),
        np.array([True, False, True, True]),
        [np.True_, 1, 2, 3],
    ])
    def test_non_integer_support_indices_rejected(self, support):
        # A cast to int64 would read these as rows 0-3 and 1, 0, 2, 3.
        with pytest.raises(ValueError, match="integers"):
            smnn.fit_space(SQUARE_POINTS, support, radius_margin=1.0)

    @pytest.mark.parametrize("support", [
        [3, 0, 1, 2],
        range(4),
        np.arange(4, dtype=np.int32),
        np.arange(4, dtype=np.uint8),
        [np.int64(0), 1, 2, 3],
    ])
    def test_integer_support_indices_accepted(self, support):
        space = smnn.fit_space(SQUARE_POINTS, support, radius_margin=1.0)
        expected = SQUARE_POINTS[list(support)] - SQUARE_POINTS.mean(axis=0)
        assert np.array_equal(space.support.points, expected)

    def test_warns_when_origin_outside_support_hull(self):
        # Two distant blobs; a one-sided support hull misses the centroid.
        rng = np.random.default_rng(2)
        blob_a = random_cloud(rng, 10, 2) + 10.0
        blob_b = random_cloud(rng, 10, 2) - 10.0
        pts = np.vstack([blob_a, blob_b])
        with pytest.warns(UserWarning, match="outside the support hull"):
            smnn.fit_space(pts, list(range(10)), radius_margin=1.0)

    def test_degenerate_support_propagates(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(smnn.DegenerateSupport):
            smnn.fit_space(pts, [0, 1, 2, 3], radius_margin=1.0)


class TestProjectToSphere:
    def test_example_values(self, square_space):
        w = smnn.project_to_sphere(square_space, np.array([0.0, 0.5]))
        assert np.array_equal(w, [0.0, 1.0])

    def test_idempotent_on_sphere(self, square_space):
        w = smnn.project_to_sphere(square_space, np.array([0.0, 1.0]))
        assert np.array_equal(w, [0.0, 1.0])

    def test_scaled_example(self, square_space):
        space = smnn.EmbeddingSpace(
            dim=2,
            centroid=np.zeros(2),
            radius=10.0,
            support=square_space.support,
            tri=square_space.tri,
        )
        w = smnn.project_to_sphere(space, np.array([3.0, 4.0]))
        assert np.abs(w - [6.0, 8.0]).max() < 1e-12

    def test_zero_norm(self, square_space):
        with pytest.raises(smnn.ZeroNorm):
            smnn.project_to_sphere(square_space, np.zeros(2))

    def test_norm_equals_radius(self, square_space):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.standard_normal(2)
            w = smnn.project_to_sphere(square_space, x)
            assert abs(np.linalg.norm(w) - square_space.radius) < 1e-9


class TestXi:
    def test_interior_scatter(self, square_space):
        sparse = smnn.xi(square_space, np.array([0.75, 0.6]))
        assert sparse.indices.tolist() == [0, 1, 2]
        assert np.abs(sparse.values - [0.3, 0.2, 0.5]).max() < 1e-12
        assert sparse.sphere_mass == 0.0
        assert sparse.facet_used is None

    def test_outside_hull_sphere_route(self, square_space):
        sparse = smnn.xi(square_space, np.array([0.75, 1.25]))
        assert sparse.indices.tolist() == [1, 3]
        assert np.abs(sparse.values - 1.0 / 3.0).max() < 1e-12
        assert abs(sparse.sphere_mass - 1.0 / 3.0) < 1e-12
        w = smnn.project_to_sphere(square_space, [0.0, 0.5])
        assert np.abs(w - [0.0, 1.0]).max() < 1e-12
        assert sparse.facet_used == (1, 3)

    def test_support_point_indicator(self, square_space):
        for t in range(4):
            sparse = smnn.xi(square_space, SQUARE_POINTS[t])
            assert list(zip(sparse.indices.tolist(), sparse.values.tolist())) == [(t, 1.0)]
            assert sparse.sphere_mass == 0.0

    def test_outside_ball_raises(self, square_space):
        with pytest.raises(smnn.OutsideBall):
            smnn.xi(square_space, np.array([0.75, 2.5]))

    def test_closed_ball_boundary_accepted(self, square_space):
        x_raw = square_space.centroid + np.array([0.0, square_space.radius])
        sparse = smnn.xi(square_space, x_raw)
        assert abs(sum(sparse.values.tolist()) + sparse.sphere_mass - 1.0) < 1e-7

    def test_partition_reconstruction_sparsity(self):
        rng = np.random.default_rng(4)
        pts = random_cloud(rng, 25, 2, spread=2.0)
        space = smnn.fit_space(pts, list(range(25)), radius_margin=1.0)
        support = space.support.points
        for _ in range(300):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            x_t = direction * space.radius * rng.random() ** 0.5
            sparse = smnn.xi(space, x_t + space.centroid)
            total = sum(sparse.values.tolist()) + sparse.sphere_mass
            assert abs(total - 1.0) < 1e-7
            recon = sparse.values @ support[sparse.indices]
            if sparse.facet_used is not None:
                recon = recon + sparse.sphere_mass * smnn.project_to_sphere(space, x_t)
            assert np.abs(recon - x_t).max() < 1e-6
            assert len(sparse.indices) <= 3
            assert all(v > 0.0 for v in sparse.values.tolist())

    def test_sphere_mass_zero_iff_interior(self):
        rng = np.random.default_rng(5)
        pts = random_cloud(rng, 15, 2)
        space = smnn.fit_space(pts, list(range(15)), radius_margin=1.0)
        for _ in range(100):
            x_t = rng.standard_normal(2) * 0.8
            if np.linalg.norm(x_t) > space.radius:
                continue
            sparse = smnn.xi(space, x_t + space.centroid)
            located = smnn.locate(space.tri, x_t) is not None
            if located:
                assert sparse.sphere_mass == 0.0 and sparse.facet_used is None
            else:
                assert sparse.facet_used is not None

    def test_boundary_agreement(self):
        # The interior and sphere routes must agree where they meet: a
        # hair inside vs a hair outside each hull facet.
        rng = np.random.default_rng(6)
        pts = random_cloud(rng, 18, 2)
        space = smnn.fit_space(pts, list(range(18)), radius_margin=1.0)
        m = space.support.size
        checked = 0
        for facet in space.tri.boundary:
            outward = facet.normal / np.linalg.norm(facet.normal)
            for _ in range(5):
                w = 0.1 + rng.random(2)
                w /= w.sum()
                on_facet = w @ space.support.points[list(facet.facet_ids)]
                inside = smnn.xi(space, on_facet - 1e-8 * outward + space.centroid)
                outside = smnn.xi(space, on_facet + 1e-7 * outward + space.centroid)
                assert np.abs(inside.to_dense(m) - outside.to_dense(m)).max() < 1e-5
                assert abs(outside.sphere_mass) < 1e-5
                assert inside.facet_used is None
                checked += 1
        assert checked >= 20

    def test_continuity_across_interior_facets(self):
        rng = np.random.default_rng(7)
        pts = jittered_grid(rng, 5, 2, jitter=0.2)
        space = smnn.fit_space(pts, list(range(len(pts))), radius_margin=1.0)
        m = space.support.size
        pairs = _interior_facet_pairs(space, rng, count=40, gap=1e-6)
        pairs += _hull_pairs(space, rng, count=40, gap=1e-6)
        assert len(pairs) >= 80
        for x, y in pairs:
            sx = smnn.xi(space, x + space.centroid)
            sy = smnn.xi(space, y + space.centroid)
            assert np.abs(sx.to_dense(m) - sy.to_dense(m)).max() <= 1e-4
            assert abs(sx.sphere_mass - sy.sphere_mass) <= 1e-4

    def test_batch_matches_single(self):
        # xi is one row of xi_batch, bit for bit, on both routes.
        rng = np.random.default_rng(8)
        for n in (2, 3):
            pts = random_cloud(rng, 40, n)
            space = smnn.fit_space(pts, list(range(40)), radius_margin=0.1)
            queries = _ball_queries(rng, space, 200)
            batch = smnn.xi_batch(space, queries)
            assert {x.facet_used is None for x in batch} == {True, False}
            for q, row in zip(queries, batch):
                single = smnn.xi(space, q)
                assert single.indices.tolist() == row.indices.tolist()
                assert np.array_equal(single.values, row.values)
                assert single.sphere_mass == row.sphere_mass
                assert single.facet_used == row.facet_used

    def test_batch_outside_ball_raises(self, square_space):
        bad = np.array([[0.75, 0.6], [0.75, 9.0]])
        with pytest.raises(smnn.OutsideBall):
            smnn.xi_batch(square_space, bad)

    def test_behind_a_hull_that_misses_the_centroid_raises(self):
        # The two-blob cloud of the fit_space warning test, supported by
        # blob a alone: from the centroid these queries lie behind that
        # hull, where no visible virtual simplex contains them.
        rng = np.random.default_rng(2)
        blob_a = random_cloud(rng, 10, 2) + 10.0
        blob_b = random_cloud(rng, 10, 2) - 10.0
        pts = np.vstack([blob_a, blob_b])
        with pytest.warns(UserWarning, match="NoContainingVirtualSimplex"):
            space = smnn.fit_space(pts, list(range(10)), radius_margin=1.0)
        # The centroid itself has no sphere projection, so no virtual simplex.
        for t in ([10.0, -10.0], [-10.0, 10.0], [5.0, -5.0], [0.0, 0.0]):
            with pytest.raises(smnn.NoContainingVirtualSimplex):
                smnn.xi(space, space.centroid + np.array(t))
            with pytest.raises(smnn.NoContainingVirtualSimplex):
                smnn.xi_batch(space, [space.centroid + np.array(t)])
        with pytest.raises(smnn.ZeroNorm):
            smnn.project_to_sphere(space, np.zeros(2))


class TestEmbeddingBatch:
    """The CSR record of embed_translated, row by row against the
    brute-force oracle and against xi."""

    def test_rows_match_oracle(self):
        # Blob a of the two-blob cloud supports the space, so the ball
        # holds interior, vertex and exterior rows, and rows behind the
        # hull, as seen from the centroid, with no virtual simplex.
        rng = np.random.default_rng(2)
        blob_a = random_cloud(rng, 10, 2) + 10.0
        pts = np.vstack([blob_a, random_cloud(rng, 10, 2) - 10.0])
        with pytest.warns(UserWarning, match="NoContainingVirtualSimplex"):
            space = smnn.fit_space(pts, list(range(10)), radius_margin=1.0)
        cells = space.support.points[space.tri.simplices] + space.centroid
        inner = np.einsum("cj,cjn->cn", rng.dirichlet(np.ones(3), len(cells)), cells)
        rows = np.vstack([inner, blob_a, _ball_queries(rng, space, 60), space.centroid])
        batch, found = embed_translated(space, rows - space.centroid)
        assert len(batch) == len(rows) and batch.indptr[0] == 0
        assert batch.indptr[-1] == batch.indices.size == batch.values.size
        kinds = []
        for r, (q, view) in enumerate(zip(rows, batch.rows())):
            a, b = batch.indptr[r : r + 2]
            if not found[r]:
                assert a == b and batch.sphere_mass[r] == 0.0 and (batch.facet[r] == -1).all()
                with pytest.raises(smnn.NoContainingVirtualSimplex):
                    smnn.xi(space, q)
                kinds.append("missing")
                continue
            indices, values, sphere_mass, facet_used, simplex = _oracle_xi(space, q)
            assert batch.indices[a:b].tolist() == indices.tolist()
            assert np.abs(batch.values[a:b] - values).max(initial=0.0) <= 1e-12
            assert abs(batch.sphere_mass[r] - sphere_mass) <= 1e-12
            assert view.facet_used == facet_used
            assert (batch.facet[r] >= 0).all() == (facet_used is not None)
            assert same_bits(view, smnn.xi(space, q))
            if simplex is None:
                kinds.append("exterior")
            else:
                kinds.append("vertex" if b - a == 1 else "interior")
        assert set(kinds) == {"interior", "vertex", "exterior", "missing"}
        assert kinds[-1] == "missing"

    def test_zero_rows(self, square_space):
        batch, found = embed_translated(square_space, np.zeros((0, 2)))
        assert batch.indptr.tolist() == [0] and len(batch) == 0
        assert batch.indices.size == batch.values.size == 0
        assert batch.sphere_mass.shape == (0,) and batch.facet.shape == (0, 2)
        assert found.shape == (0,) and batch.rows() == []
        assert smnn.xi_batch(square_space, np.zeros((0, 2))) == []

    def test_square_record(self, square_space):
        # Interior, exterior and vertex rows of the worked example.
        batch, found = embed_translated(
            square_space, np.array([[0.75, 0.6], [0.75, 1.25], [1.0, 1.0]]) - 0.75
        )
        assert found.tolist() == [True, True, True]
        assert batch.indptr.tolist() == [0, 3, 5, 6]
        assert batch.indices.tolist() == [0, 1, 2, 1, 3, 3]
        assert np.abs(batch.values - [0.3, 0.2, 0.5, 1 / 3, 1 / 3, 1.0]).max() < 1e-12
        assert np.abs(batch.sphere_mass - [0.0, 1 / 3, 0.0]).max() < 1e-12
        assert batch.facet.tolist() == [[-1, -1], [1, 3], [-1, -1]]

    def test_exterior_route_only_for_chunks_with_exterior_rows(self, monkeypatch, square_space):
        # A chunk with no exterior row makes no _virtual_simplices call,
        # so a batch whose exterior rows all lie in its second chunk makes
        # one.  The record is the same as without the count.
        interior, exterior, vertex = [0.75, 0.6], [0.75, 1.25], [1.0, 1.0]
        second = [interior] * 300 + [exterior, vertex] * 106
        batches = [
            (np.array([interior]), 0),
            (np.array([interior] * 300 + [vertex] * 300), 0),
            (np.array([interior] * 512 + second + [vertex, interior] * 38), 1),
        ]
        expected = [embedding.embed_batch(square_space, rows) for rows, _ in batches]
        calls = []
        real = embedding._virtual_simplices

        def counted(space, xs):
            calls.append(len(xs))
            return real(space, xs)

        monkeypatch.setattr(embedding, "_virtual_simplices", counted)
        for (rows, count), want in zip(batches, expected):
            calls.clear()
            got = embedding.embed_batch(square_space, rows)
            assert len(calls) == count and sum(calls) == 106 * count
            for name in ("indptr", "indices", "values", "sphere_mass", "facet"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _hull_rays(space):
    """Translated rows on the rays from the centroid through the hull's
    vertices, ridge centres and facet centres: just past the hull, well
    past it, and at distances from the sphere from 0.1 R down to 0 and
    TAU/2 beyond it.  Past a ridge or a vertex, several virtual simplices
    hold the row on a shared face, so the tie rule decides."""
    pts, facets, radius = space.support.points, space.tri.facets, space.radius
    n = space.dim
    base = [pts[np.unique(facets)], pts[facets].mean(axis=1)]
    base += [np.delete(pts[facets], d, axis=1).mean(axis=1) for d in range(n)]
    base = np.unique(np.vstack(base), axis=0)
    norms = np.linalg.norm(base, axis=1)
    base, norms = base[norms > 1e-6], norms[norms > 1e-6]
    rows = [base * scale for scale in (1.0 + 1e-12, 1.0 + 1e-7, 1.05, 1.3)]
    rows += [base * (radius * (1.0 - gap) / norms)[:, None] for gap in (0.1, 1e-4, 1e-8, 1e-13, 0.0)]
    rows.append(base * ((radius + 0.5 * TAU) / norms)[:, None])
    rows = np.vstack(rows)
    return rows[np.einsum("ij,ij->i", rows, rows) <= (radius + TAU) ** 2]


@pytest.fixture(params=["band", "every-visible-facet"])
def band(request, monkeypatch):
    """Run a test with the polar band of _exit_bar, and with every row's
    bar at -inf, the rule of a row that fails one of its tests, so that
    every visible facet is solved."""
    if request.param == "every-visible-facet":
        monkeypatch.setattr(embedding, "_exit_bar", lambda space, norms, polar: np.full(len(norms), -np.inf))
    return request.param


class TestExteriorRoute:
    """_virtual_simplices, for many rows and through xi for one, against
    reference_xi_outside, the one-row route it replaced, bit for bit:
    coordinate bytes, facet ids and the rows with no virtual simplex."""

    @staticmethod
    def assert_matches_reference(space, xs):
        found, hit, ids = embedding._virtual_simplices(space, xs)
        assert found.shape == (len(xs),) and hit.shape == (len(xs), space.dim + 1)
        for k, x in enumerate(xs):
            ref = reference_xi_outside(space, x)
            assert found[k] == (ref is not None)
            if ref is not None:
                assert hit[k].tobytes() == ref[0].tobytes()
                assert ids[k].tolist() == ref[1].tolist()
        return found

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_clouds(self, band, n, seed):
        rng = np.random.default_rng(50 + 10 * n + seed)
        m = (12, 20, 30, 30)[n - 2]
        space = smnn.fit_space(random_cloud(rng, m, n), list(range(m)), radius_margin=0.3)
        xs = _ball_queries(rng, space, 200) - space.centroid
        cells, _ = smnn.geometry.locate_batch(space.tri, xs)
        xs = xs[np.array(cells) < 0]
        assert len(xs) >= 50
        assert self.assert_matches_reference(space, xs).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ridges_vertices_and_sphere(self, band, n):
        rng = np.random.default_rng(70 + n)
        m = (10, 14, 16, 18)[n - 2]
        space = smnn.fit_space(random_cloud(rng, m, n), list(range(m)), radius_margin=0.2)
        xs = _hull_rays(space)
        assert len(xs) >= 100
        self.assert_matches_reference(space, xs)

    def test_grid_hull_with_coplanar_facets(self, band):
        # A jittered grid's hull has nearly coplanar neighbouring facets,
        # whose rays are nearly tied.
        rng = np.random.default_rng(9)
        pts = jittered_grid(rng, 4, 3, jitter=1e-6)
        space = smnn.fit_space(pts, list(range(len(pts))), radius_margin=0.5)
        self.assert_matches_reference(space, _hull_rays(space))

    def test_hull_that_misses_the_centroid(self, band):
        rng = np.random.default_rng(2)
        pts = np.vstack([random_cloud(rng, 10, 2) + 10.0, random_cloud(rng, 10, 2) - 10.0])
        with pytest.warns(UserWarning, match="NoContainingVirtualSimplex"):
            space = smnn.fit_space(pts, list(range(10)), radius_margin=1.0)
        xs = np.vstack([_ball_queries(rng, space, 300) - space.centroid, _hull_rays(space), np.zeros((1, 2))])
        found = self.assert_matches_reference(space, xs)
        assert found.any() and not found.all() and not found[-1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_row_through_xi(self, band, n):
        # xi sends its one exterior row to the same route, past the norm
        # screen or after a failed location.
        rng = np.random.default_rng(90 + n)
        m = (12, 20, 30, 30)[n - 2]
        space = smnn.fit_space(random_cloud(rng, m, n), list(range(m)), radius_margin=0.3)
        raw = np.vstack([_ball_queries(rng, space, 100), space.centroid + _hull_rays(space)[::7]])
        cells, _ = smnn.geometry.locate_batch(space.tri, raw - space.centroid)
        raw = raw[np.array(cells) < 0]
        assert len(raw) >= 40
        for x in raw:
            ref = reference_xi_outside(space, x - space.centroid)
            if ref is None:
                with pytest.raises(smnn.NoContainingVirtualSimplex):
                    smnn.xi(space, x)
                continue
            coef = clamp_coords(ref[0])
            keep = coef[1:] > 0.0
            want = embedding.SparseXi(ref[1][keep], coef[1:][keep], float(coef[0]), tuple(ref[1].tolist()))
            assert same_bits(smnn.xi(space, x), want)

    def test_no_rows(self, square_space):
        found, hit, ids = embedding._virtual_simplices(square_space, np.zeros((0, 2)))
        assert found.shape == (0,) and hit.shape == (0, 3) and ids.shape == (0, 2)

    def test_chunks_with_and_without_exterior_rows(self, band, square_space):
        # Interior, exterior and vertex rows of the worked example.  One
        # 512-row location chunk holds no exterior row, another several,
        # and the last one row; each row is xi's.
        interior, exterior = [0.75, 0.6], [0.75, 1.25]
        rng = np.random.default_rng(4)
        mixed = _ball_queries(rng, square_space, 100)
        for rows in (
            np.array([interior] * 600 + [exterior] * 3 + [[1.0, 1.0]] * 2),
            np.vstack([mixed, [interior] * 500, [exterior]]),
            np.vstack([[interior] * 512, mixed, [interior] * 460, [exterior]]),
        ):
            got = smnn.xi_batch(square_space, rows)
            assert len(got) == len(rows)
            assert any(x.facet_used is not None for x in got)
            for x, q in zip(got, rows):
                assert same_bits(x, smnn.xi(square_space, q))
        assert smnn.xi_batch(square_space, np.zeros((0, 2))) == []


class TestExitTermsFallback:
    """Where the rounding bound of _exit_bar fails (eps t > 1/4), exit_terms
    falls back to (1, 0, 0, 0): a bar of 0, under which every visible facet
    is solved."""

    def test_huge_margin_keeps_every_visible_facet(self):
        # A radius of about 1e11 on the Iris full support makes eps t about
        # 1.3; the bar's other test still holds, and nothing warns.
        data = smnn.load_iris()
        pts = data.points.points
        support = np.sort(np.unique(pts, axis=0, return_index=True)[1])
        space = smnn.fit_space(pts, support, radius_margin=1e11)
        assert space.exit_terms == (1.0, 0.0, 0.0, 0.0)
        rays = _hull_rays(space)
        cells, _ = smnn.geometry.locate_batch(space.tri, rays)
        xs = rays[np.array(cells) < 0][::5]
        assert len(xs) > 900
        found = TestExteriorRoute.assert_matches_reference(space, xs)
        assert 0 < found.sum() < len(xs)
        raw = xs[found] + space.centroid
        batch = smnn.xi_batch(space, raw)
        for x, got in zip(raw, batch):
            ref = reference_xi_outside(space, x - space.centroid)
            coef = clamp_coords(ref[0])
            keep = coef[1:] > 0.0
            want = embedding.SparseXi(ref[1][keep], coef[1:][keep], float(coef[0]), tuple(ref[1].tolist()))
            assert same_bits(smnn.xi(space, x), want) and same_bits(got, want)


class TestNormScreen:
    """Rows beyond tri.reach go to the exterior route without a call of
    locate_batch: no cell accepts them."""

    @staticmethod
    def space_and_rows(n, seed):
        # Rows at |x| = rho (1 + k TAU) around a support point of largest
        # norm rho: the smaller k pass the TAU test of a cell of that
        # vertex, the larger ones lie beyond the reach.
        rng = np.random.default_rng(120 + 10 * n + seed)
        m = (12, 20, 30, 30)[n - 2]
        space = smnn.fit_space(random_cloud(rng, m, n), list(range(m)), radius_margin=0.3)
        pts = space.support.points
        top = pts[np.argmax(np.einsum("ij,ij->i", pts, pts))]
        rho = np.linalg.norm(top)
        turns = top + rng.standard_normal((40, n)) * (rho * np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))[:, None].repeat(8, 0)
        turns /= np.linalg.norm(turns, axis=1)[:, None]
        scales = rho * (1 + TAU * np.array([0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 256.0, 1e3, 1e4, 1e6]))
        return space, (turns[:, None, :] * scales[None, :, None]).reshape(-1, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_screened_rows_lie_outside_every_cell(self, n, seed):
        space, xs = self.space_and_rows(n, seed)
        tri = space.tri
        beyond = np.einsum("ij,ij->i", xs, xs) > tri.reach * tri.reach
        cells = np.array(smnn.geometry.locate_batch(tri, xs)[0])
        assert (cells[beyond] < 0).all()
        rho = np.linalg.norm(space.support.points, axis=1).max()
        past = np.linalg.norm(xs, axis=1) > rho
        assert beyond.sum() >= 150 and (past & (cells >= 0)).sum() >= 40

    @pytest.mark.parametrize("n", [2, 5])
    def test_screened_rows_are_not_located(self, monkeypatch, n):
        space, xs = self.space_and_rows(n, 0)
        raw = xs + space.centroid
        expected = embedding.embed_batch(space, raw)
        singles = []
        for x in raw:
            try:
                singles.append(smnn.xi(space, x))
            except smnn.NoContainingVirtualSimplex:
                singles.append(None)
        located = []
        real = embedding.locate_batch

        def counted(tri, rows):
            located.append(len(rows))
            return real(tri, rows)

        monkeypatch.setattr(embedding, "locate_batch", counted)
        near = np.einsum("ij,ij->i", xs, xs) <= space.tri.reach * space.tri.reach
        got = embedding.embed_batch(space, raw)
        assert located == [near.sum()] and 0 < near.sum() < len(xs)
        for name in ("indptr", "indices", "values", "sphere_mass", "facet"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        for x, inside, want in zip(raw, near, singles):
            located.clear()
            if want is None:
                with pytest.raises(smnn.NoContainingVirtualSimplex):
                    smnn.xi(space, x)
            else:
                assert same_bits(smnn.xi(space, x), want)
            assert located == ([1] if inside else [])


class TestMemory:
    def test_xi_batch_memory_linear_in_pairs(self):
        # The all-cells kernel would hold 512 x S x (n+1) coordinates per
        # chunk; the cell index needs memory for its (query, candidate)
        # pairs only.
        rng = np.random.default_rng(12)
        space = smnn.fit_space(random_cloud(rng, 1000, 3), list(range(1000)), radius_margin=0.5)
        cells = space.tri.simplices.shape[0]
        assert cells >= 6000
        queries = space.centroid + 0.4 * (rng.random((512, 3)) - 0.5)
        dense = 512 * cells * 4 * 8
        tracemalloc.start()
        try:
            smnn.xi_batch(space, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense / 20


class TestQueryValidation:
    """Every malformed query raises a typed error from the one embedding path."""

    @pytest.fixture(params=[2, 3])
    def model(self, request):
        n = request.param
        rng = np.random.default_rng(11)
        pts = random_cloud(rng, 12, n)
        labels = ["a", "b"] * 6
        model, _ = smnn.train(pts, labels, list(range(12)), smnn.TrainConfig(epochs=2))
        return model

    @staticmethod
    def _bad_queries(n):
        return {
            "nan": (np.array([np.nan] + [0.5] * (n - 1)), smnn.NonFiniteQuery),
            "inf": (np.array([0.5] * (n - 1) + [np.inf]), smnn.NonFiniteQuery),
            "short": (np.full(n - 1, 0.5), smnn.DimensionMismatch),
            "long": (np.full(n + 1, 0.5), smnn.DimensionMismatch),
            "matrix": (np.full((1, n), 0.5), smnn.DimensionMismatch),
        }

    @pytest.mark.parametrize("kind", ["nan", "inf", "short", "long", "matrix"])
    def test_single_query_entry_points(self, model, kind):
        q, error = self._bad_queries(model.space.dim)[kind]
        for fn in (smnn.forward, smnn.predict, smnn.explain):
            with pytest.raises(error):
                fn(model, q)
        with pytest.raises(error):
            smnn.xi(model.space, q)

    @pytest.mark.parametrize("kind", ["nan", "short", "long"])
    def test_batch_entry_points(self, model, kind):
        q, error = self._bad_queries(model.space.dim)[kind]
        good = model.space.centroid
        if kind == "nan":
            rows = np.array([good, q])
        else:
            rows = q[None]
        with pytest.raises(error):
            smnn.xi_batch(model.space, rows)
        with pytest.raises(error):
            smnn.evaluate(model, rows, ["a"] * len(rows))


def _ball_queries(rng, space, count):
    """Raw queries spread over the bounding ball, inside and outside the hull."""
    n = space.dim
    directions = rng.standard_normal((count, n))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = space.radius * rng.random(count) ** (1.0 / n)
    return space.centroid + directions * radii[:, None]


def _oracle_xi(space, x_raw):
    """Brute-force reference embedding: one solve per simplex, then one per
    visible facet, with the tie rules spelled out in the module docstrings.

    Returns (indices, values, sphere_mass, facet_used, containing simplex).
    """
    x = np.asarray(x_raw, dtype=np.float64) - space.centroid
    pts = space.support.points
    n = space.dim
    h = np.append(x, 1.0)
    for simplex in space.tri.maximal:
        ids = list(simplex.vertex_ids)
        coords = np.linalg.solve(np.vstack([pts[ids].T, np.ones(n + 1)]), h)
        if coords.min() >= -TAU:
            coords = clamp_coords(coords)
            keep = coords > 0.0
            return np.array(ids)[keep], coords[keep], 0.0, None, simplex
    w = space.radius * x / np.linalg.norm(x)
    best, best_low = None, -np.inf
    for facet in space.tri.boundary:
        if float(facet.normal @ x + facet.offset) <= 0.0:
            continue
        verts = np.vstack([w, pts[list(facet.facet_ids)]])
        coords = np.linalg.solve(np.vstack([verts.T, np.ones(n + 1)]), h)
        if coords.min() >= -TAU and coords.min() > best_low:
            best, best_low = (facet, coords), coords.min()
    facet, coords = best
    coords = clamp_coords(coords)
    keep = coords[1:] > 0.0
    return np.array(facet.facet_ids)[keep], coords[1:][keep], coords[0], facet.facet_ids, None


def _special_queries(rng, space, count, kind):
    """Translated-space queries where the tie and slack rules decide.

    face   : on a face of a maximal simplex (interior faces are shared).
    ray    : on the ray through a support point, past it; beyond a hull
             vertex every virtual simplex of a visible facet at that vertex
             contains the query on an edge, so the tie rule picks one.
    skin   : just outside a hull facet, by 1e-12 to 1e-6 along its normal,
             on both sides of the TAU slack.
    """
    pts, tri = space.support.points, space.tri
    out = []
    for _ in range(count):
        if kind == "face":
            ids = list(tri.maximal[rng.integers(len(tri.maximal))].vertex_ids)
            ids.pop(rng.integers(len(ids)))
            w = rng.random(len(ids)) + 0.1
            out.append(w / w.sum() @ pts[ids])
        elif kind == "ray":
            v = pts[rng.integers(len(pts))]
            out.append(v * rng.uniform(1.0, space.radius / np.linalg.norm(v)))
        else:
            facet = tri.boundary[rng.integers(len(tri.boundary))]
            w = rng.random(len(facet.facet_ids)) + 0.1
            gap = 10.0 ** rng.uniform(-12, -6)
            out.append(w / w.sum() @ pts[list(facet.facet_ids)] + gap * facet.normal)
    return np.array(out) + space.centroid


class TestAgainstBruteForce:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 3),
        m=st.integers(8, 30),
        kind=st.sampled_from(["ball", "face", "ray", "skin"]),
        count=st.integers(1, 12),
    )
    def test_matches_brute_force_oracle(self, seed, n, m, kind, count):
        rng = np.random.default_rng(seed)
        space = smnn.fit_space(random_cloud(rng, m, n), list(range(m)), radius_margin=0.5)
        if kind == "ball":
            queries = _ball_queries(rng, space, count)
        else:
            queries = _special_queries(rng, space, count, kind)
        for q, got in zip(queries, smnn.xi_batch(space, queries)):
            indices, values, sphere_mass, facet_used, simplex = _oracle_xi(space, q)
            hit = smnn.locate(space.tri, q - space.centroid)
            assert (hit[0] if hit else None) == simplex
            assert got.indices.tolist() == indices.tolist()
            assert got.facet_used == facet_used
            assert np.abs(got.values - values).max() <= 1e-12
            assert abs(got.sphere_mass - sphere_mass) <= 1e-12


def _facet_normal_2d(points, ids):
    a, b = points[list(ids)]
    d = b - a
    n = np.array([-d[1], d[0]])
    return n / np.linalg.norm(n)


def _interior_facet_pairs(space, rng, count, gap):
    """Point pairs straddling faces shared by two maximal simplices."""
    faces = {}
    for simplex in space.tri.maximal:
        ids = simplex.vertex_ids
        for drop in range(len(ids)):
            face = tuple(v for i, v in enumerate(ids) if i != drop)
            faces[face] = faces.get(face, 0) + 1
    interior = sorted(f for f, c in faces.items() if c == 2)
    pairs = []
    while len(pairs) < count:
        face = interior[int(rng.integers(len(interior)))]
        w = 0.2 + rng.random(len(face))
        w /= w.sum()
        p = w @ space.support.points[list(face)]
        normal = _facet_normal_2d(space.support.points, face)
        pairs.append((p + 0.5 * gap * normal, p - 0.5 * gap * normal))
    return pairs


def _hull_pairs(space, rng, count, gap):
    """Point pairs straddling hull facets along their outward normals."""
    pairs = []
    boundary = space.tri.boundary
    while len(pairs) < count:
        facet = boundary[int(rng.integers(len(boundary)))]
        w = 0.2 + rng.random(len(facet.facet_ids))
        w /= w.sum()
        p = w @ space.support.points[list(facet.facet_ids)]
        pairs.append((p + 0.5 * gap * facet.normal, p - 0.5 * gap * facet.normal))
    return pairs

"""Farthest-point traversal and epsilon-cover support selection."""

import numpy as np
import pytest

import smnn

from conftest import random_cloud, reference_order

# Start point 3 is nearest the centroid; the traversal then walks the far
# corners in decreasing cover radius.  Worked out by hand.
FOUR_POINTS = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 9.0], [1.0, 1.0]])
FOUR_ORDER = [3, 1, 2, 0]
FOUR_RADII = [np.sqrt(82.0), np.sqrt(65.0), np.sqrt(2.0), 0.0]

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestEpsilonFromKappa:
    def test_hand_value(self):
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert smnn.epsilon_from_kappa(pts, 11.0) == 0.5

    def test_scales_inversely(self):
        rng = np.random.default_rng(0)
        pts = random_cloud(rng, 50, 3)
        assert abs(smnn.epsilon_from_kappa(pts, 20.0) * 2.0 - smnn.epsilon_from_kappa(pts, 10.0)) < 1e-12

    def test_positive_kappa_required(self):
        for kappa in (0.0, -1.0) + NON_FINITE:
            with pytest.raises(ValueError):
                smnn.epsilon_from_kappa(np.zeros((2, 2)), kappa)


class TestFarthestPointOrder:
    def test_hand_traversal(self):
        order, radii = smnn.farthest_point_order(FOUR_POINTS)
        assert order.tolist() == FOUR_ORDER
        assert np.abs(radii - FOUR_RADII).max() < 1e-12

    def test_starts_nearest_centroid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pts = random_cloud(rng, 25, 2, spread=4.0)
            order, _ = smnn.farthest_point_order(pts)
            dists = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
            assert dists[order[0]] == dists.min()

    def test_permutation_and_monotone_radii(self):
        rng = np.random.default_rng(2)
        pts = random_cloud(rng, 40, 3)
        order, radii = smnn.farthest_point_order(pts)
        assert sorted(order.tolist()) == list(range(40))
        assert (np.diff(radii) <= 1e-15).all()
        assert radii[-1] == 0.0

    def test_greedy_farthest_choice(self):
        # At each step the selected point realizes the current cover radius.
        rng = np.random.default_rng(3)
        pts = random_cloud(rng, 30, 2)
        order, radii = smnn.farthest_point_order(pts)
        for j in range(1, 30):
            selected = pts[order[:j]]
            gap = np.linalg.norm(pts[order[j]][None, :] - selected, axis=1).min()
            assert abs(gap - radii[j - 1]) < 1e-12

    def test_seed_irrelevant_without_ties(self):
        rng = np.random.default_rng(4)
        pts = random_cloud(rng, 30, 2)
        base, _ = smnn.farthest_point_order(pts, seed=0)
        for seed in (1, 2, 3):
            other, _ = smnn.farthest_point_order(pts, seed=seed)
            assert np.array_equal(base, other)

    def test_seed_breaks_exact_ties(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        starts = {int(smnn.farthest_point_order(corners, seed=s)[0][0]) for s in range(30)}
        assert len(starts) > 1


def _assert_reference_traversal(pts, seed):
    order, radii = smnn.farthest_point_order(pts, seed=seed)
    ref_order, ref_radii = reference_order(pts, seed=seed)
    assert order.tolist() == ref_order.tolist()
    assert radii.tobytes() == ref_radii.tobytes()


def _training_points(name, seed):
    data = {
        "spiral": lambda: smnn.gen_spiral(400, seed=seed),
        "clusters": lambda: smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=seed),
        "iris": smnn.load_iris,
    }[name]()
    return smnn.split(data, 0.75, seed=seed)[0].points.points


class TestReferenceTraversal:
    """Orders and radii are bit for bit those of the row-major oracle."""

    # Up to 7 coordinates NumPy's norm sums each row in one running sum;
    # from 8 on it sums pairwise in blocks of 8, and above 128 by halves.
    @pytest.mark.parametrize("n", list(range(1, 13)) + [130])
    def test_random_clouds(self, n):
        rng = np.random.default_rng(20 + n)
        for m in (1, 2, 7, 60):
            pts = random_cloud(rng, m, n) * rng.uniform(0.01, 100.0, size=n)
            for seed in (0, 1):
                _assert_reference_traversal(pts, seed)

    def test_grid_clouds(self):
        cube = np.array([[i, j, k] for i in range(4) for j in range(4) for k in range(4)], dtype=float)
        for pts in (TestEarlyStop.CLOUDS["grid"], cube):
            for seed in range(6):
                _assert_reference_traversal(pts, seed)

    def test_duplicate_rows(self):
        rng = np.random.default_rng(11)
        base = random_cloud(rng, 12, 3)
        pts = base[rng.integers(0, 12, size=40)]
        for seed in range(4):
            _assert_reference_traversal(pts, seed)

    @pytest.mark.parametrize("name", ["spiral", "clusters", "iris"])
    def test_training_sets(self, name):
        for seed in range(4):
            _assert_reference_traversal(_training_points(name, seed), seed)


class TestPointValidation:
    """Points are read through PointCloud: 2-d, non-empty and finite."""

    CALLS = {
        "order": lambda pts: smnn.farthest_point_order(pts),
        "size": lambda pts: smnn.epsilon_for_size(pts, 2),
        "representative": lambda pts: smnn.epsilon_representative(pts, 0.5),
        "kappa": lambda pts: smnn.epsilon_from_kappa(pts, 2.0),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_finite_point(self, call):
        for value in NON_FINITE:
            pts = FOUR_POINTS.copy()
            pts[2, 1] = value
            with pytest.raises(ValueError, match="non-finite"):
                self.CALLS[call](pts)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_not_a_2d_cloud(self, call):
        with pytest.raises(ValueError, match="2-d"):
            self.CALLS[call](np.arange(4.0))
        with pytest.raises(ValueError, match="at least one point"):
            self.CALLS[call](np.zeros((0, 2)))

    def test_size_must_be_an_integer(self):
        for size in (True, False, np.True_, 2.5, 2.0, np.float64(2.0), "2"):
            with pytest.raises(ValueError, match="size must be an integer"):
                smnn.epsilon_for_size(FOUR_POINTS, size)
        assert smnn.epsilon_for_size(FOUR_POINTS, np.int64(2)) == smnn.epsilon_for_size(FOUR_POINTS, 2)


class TestEpsilonRepresentative:
    def test_hand_sizes(self):
        assert smnn.epsilon_representative(FOUR_POINTS, 9.1) == [3]
        assert smnn.epsilon_representative(FOUR_POINTS, 9.0) == [3, 1]
        assert smnn.epsilon_representative(FOUR_POINTS, 2.0) == [3, 1, 2]
        assert smnn.epsilon_representative(FOUR_POINTS, 0.5) == [3, 1, 2, 0]

    def test_cover_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = random_cloud(rng, 60, 2, spread=3.0)
            eps = float(rng.uniform(0.2, 1.5))
            chosen = smnn.epsilon_representative(pts, eps)
            gaps = np.linalg.norm(pts[:, None, :] - pts[chosen][None, :, :], axis=2).min(axis=1)
            assert gaps.max() < eps

    def test_prefix_property(self):
        rng = np.random.default_rng(6)
        pts = random_cloud(rng, 50, 2)
        order, _ = smnn.farthest_point_order(pts)
        for eps in (0.05, 0.1, 0.3, 0.7, 2.0):
            chosen = smnn.epsilon_representative(pts, eps)
            assert chosen == order[: len(chosen)].tolist()

    def test_huge_epsilon_single_point(self):
        rng = np.random.default_rng(7)
        pts = random_cloud(rng, 20, 2)
        assert len(smnn.epsilon_representative(pts, 1e9)) == 1

    def test_tiny_epsilon_everything(self):
        rng = np.random.default_rng(8)
        pts = random_cloud(rng, 20, 2)
        assert len(smnn.epsilon_representative(pts, 1e-12)) == 20

    def test_epsilon_must_be_positive(self):
        for epsilon in (0.0, -1.0) + NON_FINITE:
            with pytest.raises(ValueError):
                smnn.epsilon_representative(FOUR_POINTS, epsilon)


class TestEpsilonForSize:
    def test_round_trip_every_size(self):
        rng = np.random.default_rng(9)
        pts = random_cloud(rng, 40, 2, spread=2.0)
        for size in range(1, 41):
            eps = smnn.epsilon_for_size(pts, size)
            assert len(smnn.epsilon_representative(pts, eps)) == size

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            smnn.epsilon_for_size(FOUR_POINTS, 0)
        with pytest.raises(ValueError):
            smnn.epsilon_for_size(FOUR_POINTS, 5)

    def test_tied_radii_unreachable(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            smnn.epsilon_for_size(line, 2)
        assert len(smnn.epsilon_representative(line, smnn.epsilon_for_size(line, 3))) == 3

    def test_duplicates_block_full_cover(self):
        dupes = np.zeros((5, 2))
        with pytest.raises(ValueError):
            smnn.epsilon_for_size(dupes, 5)
        assert smnn.epsilon_representative(dupes, smnn.epsilon_for_size(dupes, 1)) == [
            smnn.farthest_point_order(dupes)[0][0]
        ]


class TestEarlyStop:
    """The selection rules stop the traversal once their answer is fixed."""

    CLOUDS = {
        "random": random_cloud(np.random.default_rng(10), 40, 2),
        # An integer grid: exact distance ties at every step, broken by the rng.
        "grid": np.array([[i, j] for i in range(6) for j in range(6)], dtype=float),
    }

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_matches_full_order(self, name):
        pts = self.CLOUDS[name]
        m = pts.shape[0]
        for seed in range(6):
            order, radii = smnn.farthest_point_order(pts, seed=seed)
            for eps in np.unique(radii[radii > 0.0])[::3].tolist() + [1e-12, 1e9]:
                covered = np.nonzero(radii < eps)[0]
                cut = int(covered[0]) + 1 if covered.size else m
                assert smnn.epsilon_representative(pts, eps, seed=seed) == order[:cut].tolist()
            for size in range(1, m + 1):
                upper = radii[size - 2] if size >= 2 else np.inf
                if size < m and not radii[size - 1] < upper:
                    with pytest.raises(ValueError):
                        smnn.epsilon_for_size(pts, size, seed=seed)
                    continue
                eps = smnn.epsilon_for_size(pts, size, seed=seed)
                assert radii[size - 1] < eps <= upper
                assert len(smnn.epsilon_representative(pts, eps, seed=seed)) == size

    def test_traverses_only_the_prefix(self, monkeypatch):
        pts = self.CLOUDS["random"]
        calls = []
        real = smnn.sampling._break_tie
        monkeypatch.setattr(
            smnn.sampling, "_break_tie", lambda v, best, rng: calls.append(1) or real(v, best, rng)
        )
        chosen = smnn.epsilon_representative(pts, 0.3)
        assert len(calls) == len(chosen) < pts.shape[0]
        calls.clear()
        smnn.epsilon_for_size(pts, 7)
        assert len(calls) == 7


@pytest.fixture(autouse=True)
def no_walk_record():
    """Each test starts and ends without the walk epsilon_for_size leaves
    for the next epsilon_representative call, which is module state."""
    smnn.sampling._last_walk = None
    yield
    smnn.sampling._last_walk = None


def fresh_cover(pts, epsilon, seed):
    """The epsilon-cover of a full traversal: its order up to the first
    cover radius below epsilon."""
    order, radii = smnn.farthest_point_order(pts, seed=seed)
    return order[: int(np.argmax(radii < epsilon)) + 1].tolist()


class TestWalkRecord:
    """epsilon_for_size keeps its walk for the next epsilon_representative
    call, which answers from it only when the seed and the points' bits
    match and the walk reaches a radius below epsilon; every answer is a
    fresh walk's."""

    RANDOM, GRID = TestEarlyStop.CLOUDS["random"], TestEarlyStop.CLOUDS["grid"]

    @pytest.fixture
    def steps(self, monkeypatch):
        """One entry per traversal step, as in test_traverses_only_the_prefix."""
        calls = []
        real = smnn.sampling._break_tie
        monkeypatch.setattr(
            smnn.sampling, "_break_tie", lambda v, best, rng: calls.append(1) or real(v, best, rng)
        )
        return calls

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("size", [1, 7, 40])
    def test_the_pair_walks_once(self, steps, size, seed):
        eps = smnn.epsilon_for_size(self.RANDOM, size, seed=seed)
        chosen = smnn.epsilon_representative(self.RANDOM, eps, seed=seed)
        assert len(steps) == size == len(chosen)
        assert chosen == fresh_cover(self.RANDOM, eps, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_the_full_walk_answers_any_epsilon(self, steps, seed):
        # The grid's ties make the order depend on the seed.
        radii = smnn.farthest_point_order(self.GRID, seed=seed)[1]
        for eps in (radii[0] * 2.0, radii[10], radii[34], 1e-12):
            want = fresh_cover(self.GRID, eps, seed)
            smnn.epsilon_for_size(self.GRID, 36, seed=seed)
            steps.clear()
            assert smnn.epsilon_representative(self.GRID, eps, seed=seed) == want
            assert steps == []

    def test_an_epsilon_the_walk_does_not_reach_walks(self, steps):
        radii = smnn.farthest_point_order(self.RANDOM)[1]
        near, far = fresh_cover(self.RANDOM, radii[2], 0), fresh_cover(self.RANDOM, radii[9], 0)
        smnn.epsilon_for_size(self.RANDOM, 7)
        steps.clear()
        assert smnn.epsilon_representative(self.RANDOM, radii[2]) == near and steps == []
        smnn.epsilon_for_size(self.RANDOM, 7)
        steps.clear()
        assert smnn.epsilon_representative(self.RANDOM, radii[9]) == far and len(steps) == len(far) == 11

    @staticmethod
    def nudged(pts):
        out = pts.copy()
        out[4, 1] = np.nextafter(out[4, 1], np.inf)
        return out

    @staticmethod
    def signed_zero(pts):
        out = pts.copy()
        out[tuple(np.argwhere(out == 0.0)[0])] = -0.0
        return out

    @pytest.mark.parametrize("change", ["lone", "second", "another seed", "one ulp", "-0.0", "cloud changed"])
    def test_other_calls_walk(self, steps, change):
        # Each case makes the pair's first call, or none, and then an
        # epsilon_representative call that the record must not answer.
        pts, seed = self.GRID, 0
        if change != "lone":
            first = smnn.PointCloud(pts) if change == "cloud changed" else pts
            eps = smnn.epsilon_for_size(first, 36)
        else:
            eps = smnn.farthest_point_order(pts)[1][20]
        if change == "second":
            smnn.epsilon_representative(pts, eps)
        elif change == "another seed":
            seed = 1
        elif change == "one ulp":
            pts = self.nudged(pts)
        elif change == "-0.0":
            pts = self.signed_zero(pts)
        elif change == "cloud changed":
            first.points.setflags(write=True)
            first.points[[0, 7]] = first.points[[7, 0]]
            pts = first
        steps.clear()
        chosen = smnn.epsilon_representative(pts, eps, seed=seed)
        assert len(steps) == len(chosen)
        assert chosen == fresh_cover(smnn.geometry.as_cloud(pts).points, eps, seed)

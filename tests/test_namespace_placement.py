"""Unit tests for file placement (depth model + parent selection)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.namespace.generative_model import GenerativeTreeModel, build_deep_tree
from repro.namespace.placement import DEFAULT_MEAN_BYTES_BY_DEPTH, FilePlacer, PlacementModel
from repro.namespace.special_dirs import SpecialDirectorySpec, install_special_directories
from repro.stats.distributions import ShiftedPoissonDistribution


@pytest.fixture
def tree(rng):
    return GenerativeTreeModel().generate(300, rng)


class TestPlacementModel:
    def test_defaults_match_table2(self):
        model = PlacementModel()
        assert model.depth_distribution.lam == pytest.approx(6.49)
        assert model.directory_file_count.degree == 2.0
        assert model.directory_file_count.offset == pytest.approx(2.36)

    def test_mean_bytes_fallback(self):
        model = PlacementModel(mean_bytes_by_depth={1: 1000.0})
        assert model.mean_bytes_at(1) == 1000.0
        assert model.mean_bytes_at(99) == 1000.0  # falls back to the mapping mean

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            PlacementModel(affinity_sigma=0.0)

    def test_excessive_special_bias_rejected(self):
        specials = (
            SpecialDirectorySpec(name="A", depth=1, file_bias=0.6),
            SpecialDirectorySpec(name="B", depth=1, file_bias=0.6),
        )
        with pytest.raises(ValueError):
            PlacementModel(special_directories=specials)


class TestDepthSelection:
    def test_depths_within_tree_bounds(self, tree, rng):
        placer = FilePlacer(tree, PlacementModel(), rng)
        for size in (100, 10_000, 50_000_000):
            depth = placer.choose_depth(size)
            assert 1 <= depth <= tree.max_depth() + 1

    def test_depth_distribution_tracks_poisson(self, tree, rng):
        model = PlacementModel(use_multiplicative_model=False)
        placer = FilePlacer(tree, model, rng)
        depths = np.asarray([placer.choose_depth(10_000) for _ in range(2_000)])
        # With the pure Poisson model (λ=6.49) clipped to the tree, the mean
        # depth lands near min(λ, max usable depth).
        expected = min(6.49, tree.max_depth() + 1)
        assert depths.mean() == pytest.approx(expected, abs=1.5)

    def test_multiplicative_model_pulls_large_files_to_big_mean_depths(self, tree, rng):
        model = PlacementModel(affinity_sigma=0.8)
        placer = FilePlacer(tree, model, rng)
        big_depth_target = max(
            DEFAULT_MEAN_BYTES_BY_DEPTH, key=lambda d: DEFAULT_MEAN_BYTES_BY_DEPTH[d]
        )
        small = np.asarray([placer.choose_depth(2_000) for _ in range(600)])
        large = np.asarray([placer.choose_depth(2 * 1024 * 1024) for _ in range(600)])
        usable_max = tree.max_depth() + 1
        if big_depth_target <= usable_max:
            # Large files should sit, on average, nearer the large-mean depth.
            assert abs(large.mean() - big_depth_target) <= abs(small.mean() - big_depth_target) + 0.5

    def test_poisson_only_when_multiplicative_disabled(self, tree):
        model_on = PlacementModel(use_multiplicative_model=True, affinity_sigma=0.5)
        model_off = PlacementModel(use_multiplicative_model=False)
        placer_on = FilePlacer(tree, model_on, np.random.default_rng(1))
        placer_off = FilePlacer(tree, model_off, np.random.default_rng(1))
        # With the affinity disabled file size has no effect on depth choice.
        off_small = [placer_off.choose_depth(100) for _ in range(400)]
        off_large = [placer_off.choose_depth(10**8) for _ in range(400)]
        assert np.mean(off_small) == pytest.approx(np.mean(off_large), abs=1.0)
        # Sanity: the enabled model still produces valid depths.
        assert 1 <= placer_on.choose_depth(10**8) <= tree.max_depth() + 1


class TestParentSelection:
    def test_parent_depth_matches_request(self, tree, rng):
        placer = FilePlacer(tree, PlacementModel(), rng)
        parent = placer.choose_parent(3)
        assert parent.depth == 2

    def test_missing_depth_falls_back_shallower(self, rng):
        deep_tree = build_deep_tree(3)  # depths 0..2 exist
        placer = FilePlacer(deep_tree, PlacementModel(), rng)
        parent = placer.choose_parent(50)
        assert parent.depth <= deep_tree.max_depth()

    def test_root_used_when_no_candidates(self, rng):
        from repro.namespace.tree import FileSystemTree

        lone = FileSystemTree()
        placer = FilePlacer(lone, PlacementModel(), rng)
        assert placer.choose_parent(1) is lone.root

    def test_place_returns_directory_of_tree(self, tree, rng):
        placer = FilePlacer(tree, PlacementModel(), rng)
        parent = placer.place(10_000)
        assert parent in tree.directories

    def test_directory_file_counts_skewed(self, tree, rng):
        """Parent selection concentrates files: many dirs few files, few dirs many."""
        placer = FilePlacer(tree, PlacementModel(), rng)
        for _ in range(1_500):
            parent = placer.place(8_192)
            tree.create_file(parent, size=8_192, extension="txt")
        counts = np.asarray(tree.directory_file_counts())
        assert np.median(counts) <= counts.mean()


class TestSpecialDirectoryBias:
    def test_special_directories_receive_biased_share(self, rng):
        tree = GenerativeTreeModel().generate(200, rng)
        specs = (
            SpecialDirectorySpec(name="Web Cache", depth=4, file_bias=0.25),
            SpecialDirectorySpec(name="Windows", depth=2, file_bias=0.10),
        )
        nodes = install_special_directories(tree, specs, rng)
        model = PlacementModel(special_directories=specs)
        placer = FilePlacer(tree, model, rng, special_nodes=nodes)
        hits = {"Web Cache": 0, "Windows": 0}
        total = 3_000
        for _ in range(total):
            parent = placer.place(4_096)
            if parent.special_label in hits:
                hits[parent.special_label] += 1
        assert hits["Web Cache"] / total == pytest.approx(0.25, abs=0.03)
        assert hits["Windows"] / total == pytest.approx(0.10, abs=0.03)

    def test_no_bias_without_special_nodes(self, tree, rng):
        model = PlacementModel(
            special_directories=(SpecialDirectorySpec(name="X", depth=2, file_bias=0.5),)
        )
        # Special spec configured but the node was never installed/passed in:
        # placement silently ignores the bias.
        placer = FilePlacer(tree, model, rng, special_nodes={})
        parent = placer.place(1_000)
        assert parent.special_label is None


class ReferencePlacer:
    """The historical placer: every weight recomputed from the live tree.

    ``choose_parent`` rebuilds the candidates' file counts from
    ``file_count`` on every call and ``choose_depth`` recomputes each
    depth's log target; :class:`FilePlacer` keeps both incrementally and
    must make exactly the same choices with exactly the same rng draws.
    """

    def __init__(self, tree, model, rng, special_nodes=None):
        self._tree = tree
        self._model = model
        self._rng = rng
        self._special_nodes = dict(special_nodes or {})
        self._max_depth = max(tree.max_depth(), 1)
        self._directories_by_depth = {}
        self._quotas = {}
        self._special_specs = {
            spec.name: spec for spec in model.special_directories if spec.name in self._special_nodes
        }

    def choose_depth(self, file_size):
        depths = np.arange(1, self._max_depth + 2)
        poisson = np.asarray(self._model.depth_distribution.pmf(depths), dtype=float)
        weights = poisson
        if self._model.use_multiplicative_model:
            affinity = np.empty(len(depths), dtype=float)
            log_size = math.log(max(file_size, 1))
            sigma = self._model.affinity_sigma
            for position, depth in enumerate(depths):
                target = math.log(max(self._model.mean_bytes_at(int(depth)), 1.0))
                affinity[position] = math.exp(-((log_size - target) ** 2) / (2.0 * sigma**2))
            weights = poisson * affinity
        total = weights.sum()
        if total <= 0:
            return int(depths[np.argmax(poisson)])
        return int(self._rng.choice(depths, p=weights / total))

    def choose_parent(self, depth):
        parent_depth = depth - 1
        candidates = self._candidates_at(parent_depth)
        while not candidates and parent_depth > 0:
            parent_depth -= 1
            candidates = self._candidates_at(parent_depth)
        if not candidates:
            return self._tree.root
        counts = np.asarray([directory.file_count for directory in candidates], dtype=float)
        weights = np.maximum(self._quotas[parent_depth] - counts, 0.25)
        return candidates[int(self._rng.choice(len(candidates), p=weights / weights.sum()))]

    def _candidates_at(self, depth):
        if depth < 0:
            return []
        if depth not in self._directories_by_depth:
            candidates = self._tree.directories_at_depth(depth)
            self._directories_by_depth[depth] = candidates
            if candidates:
                quotas = self._model.directory_file_count.sample(self._rng, len(candidates))
                self._quotas[depth] = np.asarray(quotas, dtype=float) + 1.0
        return self._directories_by_depth[depth]

    def place(self, file_size):
        if self._special_specs:
            draw = self._rng.random()
            cumulative = 0.0
            for name, spec in self._special_specs.items():
                cumulative += spec.file_bias
                if draw < cumulative:
                    return self._special_nodes[name]
        return self.choose_parent(self.choose_depth(file_size))


def _placement_run(placer_class, seed, *, create_files, specs=(), model_kwargs=None, files=600):
    """Place ``files`` files; returns the chosen directory indices and final rng draw."""
    rng = np.random.default_rng(seed)
    tree = GenerativeTreeModel().generate(80, rng)
    nodes = install_special_directories(tree, specs, rng) if specs else {}
    model = PlacementModel(special_directories=specs, **(model_kwargs or {}))
    placer = placer_class(tree, model, rng, special_nodes=nodes)
    index = {id(directory): position for position, directory in enumerate(tree.directories)}
    sizes = np.exp(rng.normal(9.0, 2.5, files)).astype(int)
    chosen = []
    for size in sizes:
        parent = placer.place(int(size))
        chosen.append(index[id(parent)])
        if create_files:
            tree.create_file(parent, size=int(size), extension="txt")
    return chosen, int(rng.integers(2**62))


SEEDS = (0, 1, 7, 42, 2009)


class TestIncrementalCountsMatchReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pipeline_style_caller(self, seed):
        # Every placement is followed by a file created in the chosen parent.
        new = _placement_run(FilePlacer, seed, create_files=True)
        assert new == _placement_run(ReferencePlacer, seed, create_files=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_synthetic_style_caller(self, seed):
        # The synthetic dataset builder only samples: counts must stay at 0.
        new = _placement_run(FilePlacer, seed, create_files=False)
        assert new == _placement_run(ReferencePlacer, seed, create_files=False)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("create_files", (True, False))
    def test_special_directories_that_are_depth_candidates(self, seed, create_files):
        # Special nodes sit at depths the depth model also draws parents
        # from, so files reach them by both routes, often back to back.
        specs = (
            SpecialDirectorySpec(name="Hot", depth=1, file_bias=0.3),
            SpecialDirectorySpec(name="Warm", depth=3, file_bias=0.2),
        )
        new = _placement_run(FilePlacer, seed, create_files=create_files, specs=specs)
        reference = _placement_run(ReferencePlacer, seed, create_files=create_files, specs=specs)
        assert new == reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_poisson_only_and_deep_fallback_depths(self, seed):
        # A mean-bytes mapping missing most depths exercises the fallback
        # mean; the Poisson-only model skips the affinity entirely.
        for model_kwargs in (
            {"mean_bytes_by_depth": {1: 4096.0, 2: 1 << 20}},
            {"use_multiplicative_model": False},
        ):
            new = _placement_run(FilePlacer, seed, create_files=True, model_kwargs=model_kwargs)
            reference = _placement_run(
                ReferencePlacer, seed, create_files=True, model_kwargs=model_kwargs
            )
            assert new == reference

    def test_direct_choose_parent_calls_see_created_files(self):
        trees = [GenerativeTreeModel().generate(60, np.random.default_rng(3)) for _ in range(2)]
        placers = [
            placer_class(tree, PlacementModel(), np.random.default_rng(4))
            for placer_class, tree in zip((FilePlacer, ReferencePlacer), trees)
        ]
        picks = [[], []]
        for step in range(400):
            for side, (tree, placer) in enumerate(zip(trees, placers)):
                parent = placer.choose_parent(2 + step % 4) if step % 3 else placer.place(5000)
                tree.create_file(parent, size=5000, extension="txt")
                picks[side].append(tree.directories.index(parent))
        assert picks[0] == picks[1]

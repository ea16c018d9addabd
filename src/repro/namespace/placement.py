"""File depth assignment and parent-directory selection (Section 3.3.2).

Placing a file involves two decisions the paper models separately and then
combines:

1. **Depth** — must satisfy both the distribution of *files* with depth
   (Poisson, λ=6.49) and the distribution of *bytes* with depth (represented
   by the mean file size at each depth).  Impressions combines the two with a
   multiplicative model: the probability of placing a file of size ``s`` at
   depth ``d`` is proportional to ``Poisson(d) · affinity(s, d)`` where the
   affinity term is a lognormal kernel centred on the desired mean bytes per
   file at depth ``d``.  Large files are therefore drawn toward depths whose
   target mean is large, which reproduces both curves at once
   (Figures 2(f)/(g)).

2. **Parent directory** — among directories at depth ``d − 1``, chosen so that
   the resulting per-directory file counts follow the inverse-polynomial model
   of Table 2.  Each candidate directory is assigned a target file count
   sampled from that model; parents are then selected with probability
   proportional to their remaining quota (plus a small floor so no directory
   is ever impossible).

Special directories (Figure 2(h)) intercept a configurable fraction of files
before the depth model runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.namespace.special_dirs import SpecialDirectorySpec
from repro.namespace.tree import DirectoryNode, FileSystemTree
from repro.stats.distributions import (
    InversePolynomialDistribution,
    ShiftedPoissonDistribution,
)

__all__ = ["PlacementModel", "FilePlacer", "DEFAULT_MEAN_BYTES_BY_DEPTH"]


#: Default mean file size (bytes) per namespace depth, loosely following the
#: shape of Figure 2(g): small files near the root, a hump around the depths
#: where program installs and media libraries live, then a slow decline.
DEFAULT_MEAN_BYTES_BY_DEPTH: Mapping[int, float] = {
    0: 24 * 1024,
    1: 48 * 1024,
    2: 320 * 1024,
    3: 512 * 1024,
    4: 768 * 1024,
    5: 640 * 1024,
    6: 384 * 1024,
    7: 256 * 1024,
    8: 160 * 1024,
    9: 112 * 1024,
    10: 80 * 1024,
    11: 64 * 1024,
    12: 48 * 1024,
    13: 40 * 1024,
    14: 32 * 1024,
    15: 28 * 1024,
    16: 24 * 1024,
}


@dataclass
class PlacementModel:
    """Parameters controlling file placement.

    Attributes:
        depth_distribution: Poisson model of file count by depth.
        mean_bytes_by_depth: desired mean file size per depth; depths missing
            from the mapping fall back to the overall mean of the mapping.
        directory_file_count: inverse-polynomial model of files per directory.
        affinity_sigma: width (in log space) of the size/depth affinity
            kernel; larger values weaken the bytes-by-depth criterion and
            recover a pure Poisson placement.
        special_directories: special-directory specs with their file biases.
        use_multiplicative_model: disable to fall back to the Poisson-only
            placement (the ablation benchmark flips this).
    """

    depth_distribution: ShiftedPoissonDistribution = field(
        default_factory=lambda: ShiftedPoissonDistribution(lam=6.49)
    )
    mean_bytes_by_depth: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_MEAN_BYTES_BY_DEPTH)
    )
    directory_file_count: InversePolynomialDistribution = field(
        default_factory=lambda: InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=4096)
    )
    affinity_sigma: float = 2.2
    special_directories: Sequence[SpecialDirectorySpec] = ()
    use_multiplicative_model: bool = True

    def __post_init__(self) -> None:
        if self.affinity_sigma <= 0:
            raise ValueError("affinity_sigma must be positive")
        total_bias = sum(spec.file_bias for spec in self.special_directories)
        if total_bias >= 1.0:
            raise ValueError("special-directory biases must sum to less than 1")

    def mean_bytes_at(self, depth: int) -> float:
        if depth in self.mean_bytes_by_depth:
            return float(self.mean_bytes_by_depth[depth])
        values = list(self.mean_bytes_by_depth.values())
        return float(np.mean(values)) if values else 64 * 1024.0


class FilePlacer:
    """Assigns a depth and a parent directory to each file being created."""

    def __init__(
        self,
        tree: FileSystemTree,
        model: PlacementModel,
        rng: np.random.Generator,
        special_nodes: Mapping[str, DirectoryNode] | None = None,
    ) -> None:
        self._tree = tree
        self._model = model
        self._rng = rng
        self._special_nodes = dict(special_nodes or {})
        # A file lives at depth 1 .. max_depth + 1 (its parent one above).
        self._depths = np.arange(1, max(tree.max_depth(), 1) + 2)
        # log(mean bytes) per file depth, the centre of each affinity kernel.
        self._log_targets = [
            math.log(max(model.mean_bytes_at(int(depth)), 1.0)) for depth in self._depths
        ]
        self._depth_weights_cache: dict[int, np.ndarray] = {}
        self._directories_by_depth: dict[int, list[DirectoryNode]] = {}
        self._quotas: dict[int, np.ndarray] = {}
        # File counts of the candidates, as floats next to their quotas, and
        # where each candidate sits in them.  Only the directory handed out
        # by the previous call can have gained a file since, so re-reading
        # that one count keeps the arrays equal to the live file_counts.
        self._counts: dict[int, np.ndarray] = {}
        self._slots: dict[int, tuple[int, int]] = {}
        self._last_returned: DirectoryNode | None = None
        self._special_specs = {
            spec.name: spec for spec in model.special_directories if spec.name in self._special_nodes
        }

    # Depth selection --------------------------------------------------------

    def choose_depth(self, file_size: int) -> int:
        """Choose a namespace depth for a file of ``file_size`` bytes.

        The returned depth is clamped to ``1 .. max_depth + 1`` (a file must
        live inside some directory; parents live at ``depth - 1``).
        """
        depths = self._depths
        weights = self._depth_weights(file_size, depths)
        total = weights.sum()
        if total <= 0:
            return int(depths[np.argmax(self._poisson_weights(depths))])
        chosen = self._rng.choice(depths, p=weights / total)
        return int(chosen)

    def _depth_weights(self, file_size: int, depths: np.ndarray) -> np.ndarray:
        poisson_weights = self._poisson_weights(depths)
        if not self._model.use_multiplicative_model:
            return poisson_weights
        log_size = math.log(max(file_size, 1))
        sigma = self._model.affinity_sigma
        affinity = np.array(
            [
                math.exp(-((log_size - target) ** 2) / (2.0 * sigma**2))
                for target in self._log_targets
            ],
            dtype=float,
        )
        return poisson_weights * affinity

    def _poisson_weights(self, depths: np.ndarray) -> np.ndarray:
        key = len(depths)
        if key not in self._depth_weights_cache:
            self._depth_weights_cache[key] = np.asarray(
                self._model.depth_distribution.pmf(depths), dtype=float
            )
        return self._depth_weights_cache[key]

    # Parent-directory selection ----------------------------------------------

    def choose_parent(self, depth: int) -> DirectoryNode:
        """Choose a parent directory at ``depth - 1`` for a file at ``depth``.

        If no directory exists at exactly ``depth - 1`` the nearest shallower
        populated depth is used (this only happens for degenerate trees).
        """
        self._refresh_last_count()
        return self._choose_parent(depth)

    def _choose_parent(self, depth: int) -> DirectoryNode:
        parent_depth = depth - 1
        candidates = self._candidates_at(parent_depth)
        while not candidates and parent_depth > 0:
            parent_depth -= 1
            candidates = self._candidates_at(parent_depth)
        if not candidates:
            return self._returning(self._tree.root)
        weights = self._quotas[parent_depth] - self._counts[parent_depth]
        weights = np.maximum(weights, 0.25)
        index = int(self._rng.choice(len(candidates), p=weights / weights.sum()))
        return self._returning(candidates[index])

    def _candidates_at(self, depth: int) -> list[DirectoryNode]:
        if depth < 0:
            return []
        if depth not in self._directories_by_depth:
            candidates = self._tree.directories_at_depth(depth)
            self._directories_by_depth[depth] = candidates
            if candidates:
                quotas = self._model.directory_file_count.sample(self._rng, len(candidates))
                self._quotas[depth] = np.asarray(quotas, dtype=float) + 1.0
                self._counts[depth] = np.asarray(
                    [directory.file_count for directory in candidates], dtype=float
                )
                for index, directory in enumerate(candidates):
                    self._slots[id(directory)] = (depth, index)
        return self._directories_by_depth[depth]

    def _returning(self, directory: DirectoryNode) -> DirectoryNode:
        self._last_returned = directory
        return directory

    def _refresh_last_count(self) -> None:
        """Re-read the file count of the directory the previous call returned.

        Callers create at most one file, in the directory they were handed,
        before asking again; callers that only sample (the synthetic dataset
        builder) create none.  Re-reading that directory's true count covers
        both, where a blind increment would not.
        """
        directory = self._last_returned
        if directory is None:
            return
        slot = self._slots.get(id(directory))
        if slot is not None:
            depth, index = slot
            self._counts[depth][index] = directory.file_count

    # Full placement -----------------------------------------------------------

    def place(self, file_size: int) -> DirectoryNode:
        """Choose the directory that will contain a new file of ``file_size``.

        Special directories are considered first: with probability equal to
        its configured bias, a file is routed directly to that special
        directory regardless of the depth model.
        """
        self._refresh_last_count()
        special = self._maybe_special()
        if special is not None:
            return self._returning(special)
        depth = self.choose_depth(file_size)
        return self._choose_parent(depth)

    def _maybe_special(self) -> DirectoryNode | None:
        if not self._special_specs:
            return None
        draw = self._rng.random()
        cumulative = 0.0
        for name, spec in self._special_specs.items():
            cumulative += spec.file_bias
            if draw < cumulative:
                return self._special_nodes[name]
        return None

"""Golden digests pinned as literals.

``test_pipeline_equivalence`` compares the pipeline against a replica of the
historical monolithic generator, but the replica imports the same
:class:`FilePlacer` and :class:`Fragmenter`, so a change inside either one
moves both sides together and goes unnoticed.  The digests below were
captured once and are compared against fixed strings: any drift in placement
(depth choice, parent choice, rng order), in path construction or in the
fragmenter's free-list behaviour changes at least one of them.

Each image case pins two digests:

* ``image_fingerprint`` — namespace, first blocks, layout score, report;
* a layout digest — every file's full extent list plus the disk's free list
  and layout aggregates, which ``image_fingerprint`` does not cover.

The other callers of :meth:`FilePlacer.place` are pinned too: the synthetic
dataset builder (which never creates files in the tree it places into) and
Figure 1's re-homing of an image into flat and deep trees.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.common import scaled_default_config
from repro.bench.fig1_find import NUM_DIRECTORIES, _reshaped_image
from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.core.impressions import Impressions
from repro.dataset.synthetic import SyntheticDatasetBuilder
from repro.namespace.generative_model import build_deep_tree, build_flat_tree
from repro.namespace.special_dirs import SpecialDirectorySpec
from repro.pipeline import default_pipeline, image_fingerprint

from test_pipeline_equivalence import CONFIGS


def _sha256(document: object) -> str:
    canonical = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def layout_digest(image: FileSystemImage) -> str:
    """Digest of every file's extents, the free list and the layout aggregates."""
    disk = image.disk
    assert disk is not None
    return _sha256(
        {
            "extents": [file_node.extents for file_node in image.tree.files],
            "disk_files": disk.file_names(),
            "free": disk.free_extents(),
            "aggregates": disk.layout_aggregates,
        }
    )


IMAGE_CONFIGS: dict[str, ImpressionsConfig] = {
    **{f"equivalence-{name}": config for name, config in CONFIGS.items()},
    # Heavy special-directory biases at shallow depths: the special nodes are
    # also ordinary depth candidates, so both routes fill the same directory.
    "special-heavy": ImpressionsConfig(
        fs_size_bytes=None,
        num_files=400,
        num_directories=50,
        seed=17,
        layout_score=0.85,
        special_directories=(
            SpecialDirectorySpec(name="Hot", depth=1, file_bias=0.3),
            SpecialDirectorySpec(name="Warm", depth=2, file_bias=0.2),
            SpecialDirectorySpec(name="Deep", depth=9, file_bias=0.1),
        ),
    ),
    "poisson-only": ImpressionsConfig(
        fs_size_bytes=None,
        num_files=300,
        num_directories=60,
        seed=23,
        use_multiplicative_depth_model=False,
        layout_score=0.9,
    ),
    "image1-quarter-1.0": scaled_default_config(0.25, seed=42),
    "image1-quarter-0.8": scaled_default_config(0.25, seed=42, layout_score=0.8),
}

#: (image_fingerprint, layout digest) per case in IMAGE_CONFIGS.
GOLDEN_IMAGES: dict[str, tuple[str, str]] = {
    "equivalence-constrained": (
        "639dd435d6cd6b7917630ec32adb68db2ee2861aff5cd02f45c7c68436041a54",
        "26cdca7e539759d16ccd64e37a8836c3bf43cfcefae9f8e5c2efe93ff198fb3b",
    ),
    "equivalence-fragmented": (
        "24d2e1a3ba35a6c279dd62c2a6b0071cbaa0faa5b37c90813a4e60e7fa0eca5b",
        "532f3b5adbb573091161067f711d759441aa317c475f1450ea811c7ad0dd5702",
    ),
    "equivalence-plain": (
        "38e4f6897144f894bf35be0abc42e104108c8906bf525abbde28c7ef14c5d198",
        "20f16314eba79bbb00a187515d1a4c2d838dcd1429dac5c04f42fa70453bbbc2",
    ),
    "equivalence-with_content": (
        "3f0f7670b543e41f81c94c541c464cd3a318ebc86e04dae173ea0717214d8ae7",
        "69ac188ad4f673915334d4873ce06fca31ef326940126fb9c326c1e14b663b70",
    ),
    "image1-quarter-0.8": (
        "6b032a852b04d4d36277a1bcc1fabd9844fd4968c5068f54fab5079bf04f2bfa",
        "30f5f7e424038419d95c58b2dc521287280e9f0ee8a79d87dc01c2318965edbb",
    ),
    "image1-quarter-1.0": (
        "2cad5b39034e4f9d13b71880f5ee588280a2e9574427320eb290f5a4e7e47559",
        "f3b5bd52c3578acbbd712087a46256db88270b73e95e9bf0b1e883909c75ab2a",
    ),
    "poisson-only": (
        "8b2b2eb0a1f731cc64bbdb2238c67951dec3cf1ce57bb9e0b457482f16e92888",
        "6fdbae1e0f23e4c092e9de51c567c14a4afbd6847566429a6c8015a8c4e974ec",
    ),
    "special-heavy": (
        "d0e3578f2cbacdfdd1342ae2a436706ec43c27967bccc0326408046697956cbd",
        "16751a1a222569d24ffc086bc6bc2b8f30f5e26d31896327ecdf01de3ea9f752",
    ),
}

#: SyntheticDatasetBuilder(seed=2009).build_snapshot(2.0, max_files=3000).
GOLDEN_SYNTHETIC_SNAPSHOT = (
    "a58a270203fd24126d943d085cb884416db1aefb7aed67253817be14827bab17"
)

#: Figure 1's flat and deep re-homings of a 400-file default image, seed 42:
#: (image_fingerprint, layout digest).
GOLDEN_RESHAPED: dict[str, tuple[str, str]] = {
    "flat": (
        "f85a1b8e550cc8971df09d9ad3b7c2787a726803053fba588489fb885cd13159",
        "21bca4881273dc7604623f7b43bc4a91b64d34eaa454c13ef163d1fef6436070",
    ),
    "deep": (
        "a9c461363cf1bf1f55eff79ea124236bd3678809849f8f587c9073514f42a148",
        "b85b4cd6f9143ea75903254c664c4b553c6e6485a61af0c483894eb852f3026b",
    ),
}


def image_digests(config: ImpressionsConfig) -> tuple[str, str]:
    image = default_pipeline().run(config).image
    return image_fingerprint(image), layout_digest(image)


def synthetic_snapshot_digest() -> str:
    snapshot = SyntheticDatasetBuilder(seed=2009).build_snapshot(2.0, max_files=3000)
    return _sha256(
        {
            "files": [
                (record.size, record.depth, record.extension, record.directory_id)
                for record in snapshot.files
            ],
            "directories": [
                (record.directory_id, record.depth, record.subdirectory_count, record.file_count)
                for record in snapshot.directories
            ],
        }
    )


def reshaped_digests() -> dict[str, tuple[str, str]]:
    config = ImpressionsConfig(
        fs_size_bytes=None,
        num_files=400,
        num_directories=NUM_DIRECTORIES,
        seed=42,
        special_directories=(),
    )
    original = Impressions(config).generate()
    digests = {}
    for shape, build in (("flat", build_flat_tree), ("deep", build_deep_tree)):
        image = _reshaped_image(original, build(NUM_DIRECTORIES), 42)
        digests[shape] = (image_fingerprint(image), layout_digest(image))
    return digests


@pytest.mark.parametrize("name", sorted(IMAGE_CONFIGS))
def test_image_digests_are_pinned(name):
    assert image_digests(IMAGE_CONFIGS[name]) == GOLDEN_IMAGES[name]


def test_synthetic_snapshot_digest_is_pinned():
    assert synthetic_snapshot_digest() == GOLDEN_SYNTHETIC_SNAPSHOT


def test_fig1_reshaped_trees_are_pinned():
    assert reshaped_digests() == GOLDEN_RESHAPED

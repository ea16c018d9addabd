"""The benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, which
runs several times so ``setup_s`` is a median, then does untimed one-off
preparation in ``prepare``.  Every ``iteration`` runs the same work, timing its pass steps through
:meth:`RunContext.step`, and returns how many units of work it did; the
pass is the steps' seconds per unit.  Everything else in an iteration
(fingerprints, correctness checks, clean-up) is untimed.  The program only
ever receives generated configs and traces.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import tarfile
import time

import numpy as np

from perfbench.harness import RunContext
from repro.bench.common import scaled_default_config
from repro.bench.fig3_constraints import EXAMPLE_MU, EXAMPLE_SIGMA
from repro.constraints.resolver import ConstraintResolver, ConstraintSpec
from repro.content.generators import ContentPolicy
from repro.materialize import (
    NullSink,
    SparseTarSink,
    TarSink,
    materialize_image,
    verify_round_trip,
)
from repro.pipeline import Pipeline, StageCache, default_pipeline, image_fingerprint
from repro.stats.distributions import LognormalDistribution
from repro.stats.goodness_of_fit import mdcc_from_fractions
from repro.trace import (
    ChurnSpec,
    TraceAger,
    TraceReplayer,
    ZipfMixSpec,
    synthesize_churn,
    synthesize_zipf_mix,
)
from repro.workloads.cache import BufferCache

#: the six generation stages, in pipeline order.
STAGES = (
    "directory_structure",
    "file_sizes",
    "extensions",
    "depth_and_placement",
    "content",
    "on_disk_creation",
)

#: content kinds the content generator fills from its word models.
TEXT_KINDS = ("text", "html", "script", "document")

#: Archiving one MB of text-like content (word models, about 0.23 s with the
#: current code, 2-CPU x86-64) costs about as much as 40 MB of any other kind
#: (payload draw, hashing, tar write, together about 0.006 s per MB).
OTHER_MB_PER_TEXT_MB = 40.0

#: Target layout score of the relayout and aging steps.  The fragmenter
#: overshoots it at paper scale (0.8 achieves about 0.906); the gap is
#: reported as ``layout_score_error`` rather than hidden by a softer target.
LAYOUT_TARGET = 0.8

#: Largest files-by-depth MDCC accepted for an image of n files is this plus
#: 1/sqrt(n).  The generator measures 0.12-0.13 at paper scale on every seed
#: tried; the 1/sqrt(n) term covers the sampling noise of small images (up to
#: 0.18 at 200 files).  A placement change that distorts the depth
#: distribution beyond it is a failed check, not a speed-up.
DEPTH_MDCC_TOLERANCE = 0.15


def instrument(ctx: RunContext, pipeline: Pipeline, cache: StageCache | None = None) -> None:
    recorder = ctx.recorder
    recorder.wrap(pipeline, "run", "pipeline.run")
    for stage in pipeline.stages:
        recorder.wrap(stage, "run", f"stage.{stage.name}")
    if cache is not None:
        recorder.wrap(cache, "load", "cache.load")
        recorder.wrap(cache, "store", "cache.store")


def generate(config):
    return default_pipeline().run(config).image


def warm_up() -> None:
    """Run generation, materialization, verification and the resolver once at
    toy size, so lazy imports and model tables are in place before timing.

    The toy inputs are the same in every run, so this part of ``setup_s``
    does not vary with the workload seed.
    """
    config = scaled_default_config(0.0025, seed=0)
    image = generate(config)
    verify_round_trip(image, materialize_image(image, NullSink()), config=config)
    spec = ConstraintSpec(
        num_values=100,
        target_sum=6_000.0,
        distribution=LognormalDistribution(mu=EXAMPLE_MU, sigma=EXAMPLE_SIGMA),
    )
    ConstraintResolver(spec, np.random.default_rng(0)).resolve()


def depth_mdcc(image, config) -> float:
    """MDCC of files-by-depth against the configured depth model."""
    by_depth = image.tree.files_by_depth()
    depths = np.arange(max(by_depth) + 1)
    observed = [by_depth.get(int(depth), 0) for depth in depths]
    return mdcc_from_fractions(observed, config.depth_distribution.pmf(depths))


def resolve_hard_case(ctx: RunContext, num_values: int) -> dict[str, float]:
    """Resolve Figure 3(a)'s hard case once and return its per-layer metrics.

    ``num_values`` lognormal sizes are resolved to 1.5x their expected sum
    (beta 0.05, lambda 1).  A trial takes 5 to 30 s with the seed, and its
    run-to-run spread on a shared host (16-30% over ten seeds) exceeds any
    end-to-end bound, so the resolver is measured here, in traced runs.  A
    trial that does not converge within beta and pass KS is a failed
    operation.
    """
    spec = ConstraintSpec(
        num_values=num_values,
        # 90 per value: 1.5x the expected sum of the fig3 distribution.
        target_sum=90.0 * num_values,
        distribution=LognormalDistribution(mu=EXAMPLE_MU, sigma=EXAMPLE_SIGMA),
        beta=0.05,
        max_oversampling_factor=1.0,
    )
    rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, 0]))
    resolver = ConstraintResolver(spec, rng)
    ctx.recorder.wrap(resolver, "resolve", "constraints.resolve")
    result, seconds = ctx.step("resolve", resolver.resolve, in_pass=False)
    resolved = result.converged and result.ks_passed and result.final_beta <= spec.beta
    ctx.operations(1, 0 if resolved else 1)
    oversamples = result.trace.oversamples
    return {
        "resolve_s": seconds,
        "resolve_ks_d": result.ks_statistic_vs_initial,
        "constraints.oversamples": oversamples,
        "constraints.restarts": result.trace.restarts,
        "constraints.oversamples_per_s": oversamples / seconds,
        "self.constraints_s": seconds,
    }


def check_counts(ctx: RunContext, image, config, result) -> None:
    """File and directory counts equal the config, and the sink saw them all."""
    tree = image.tree
    ctx.check("file_count", tree.file_count == config.resolved_num_files())
    # Installing a special directory deeper than the generated tree first
    # extends a chain of plain directories down to it.
    specials = config.special_directories
    extra = tree.directory_count - config.resolved_num_directories() - len(specials)
    ctx.check("directory_count", 0 <= extra <= sum(spec.depth for spec in specials))
    ctx.check(
        "sink_entries",
        result.files == tree.file_count and result.directories == tree.directory_count,
    )


def tree_bytes(root: str) -> int:
    total = 0
    for directory, dirnames, files in os.walk(root):
        dirnames.sort()
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in sorted(files))
    return total


class PaperImage:
    """Image1 at the paper's own size, generated cold, relaid out, archived."""

    name = "paper_image"

    def __init__(self, size: float) -> None:
        self.scale = 1.0 * size
        self.resolver_values = max(10, int(round(1_000 * size)))
        #: per-layer metrics measured only by traced runs, after the loop
        self.traced_metrics: dict[str, float] = {}

    def setup(self, ctx: RunContext) -> None:
        ctx.setup_part("warm_up", warm_up)
        self.config = ctx.setup_part("config", scaled_default_config, self.scale, seed=ctx.seed)
        self.relayout_config = self.config.with_overrides(layout_score=LAYOUT_TARGET)

    def prepare(self, ctx: RunContext) -> None:
        pass

    def iteration(self, ctx: RunContext, index: int) -> float:
        config = self.config
        cache_dir = ctx.fresh_path("stage-cache")
        cache = StageCache(cache_dir)
        cold = default_pipeline()
        instrument(ctx, cold, cache)
        generated, _ = ctx.step("generate", cold.run, config, cache=cache)
        resume = default_pipeline()
        instrument(ctx, resume)
        relaid, _ = ctx.step("relayout", resume.run, self.relayout_config, cache=cache)
        archive = ctx.fresh_path("image.sparse.tar")
        image = generated.image
        sparse, _ = ctx.step(
            "materialize", materialize_image, image, SparseTarSink(archive), span="materialize"
        )

        check_counts(ctx, image, config, sparse)
        ctx.check(
            "relayout_resumes_five_stages",
            relaid.cache_hits == len(STAGES) - 1 and relaid.cache_misses == 1,
        )
        if index == 0:
            ctx.fingerprint("image", image_fingerprint(image))
            ctx.fingerprint("relaid_image", image_fingerprint(relaid.image))
            null = materialize_image(image, NullSink())
            ctx.check("sparse_digest_equals_null_digest", null.content_digest == sparse.content_digest)
        verification, _ = ctx.step(
            "verify", verify_round_trip, image, sparse, config=config, span="verify",
            in_pass=False,
        )
        ctx.check("verify_round_trip", verification.passed)

        ctx.record("layout_score_error", abs(relaid.image.achieved_layout_score() - LAYOUT_TARGET))
        depth_fit = depth_mdcc(image, config)
        ctx.record("depth_mdcc", depth_fit)
        ctx.check(
            "depth_mdcc_within_tolerance",
            depth_fit <= DEPTH_MDCC_TOLERANCE + 1.0 / math.sqrt(image.tree.file_count),
        )
        ctx.record("size_mdcc", next(
            check.statistic for check in verification.checks if check.name == "size_model_mdcc"
        ))
        ctx.record("pipeline.cache.hits", cache.stats.hits)
        ctx.record("pipeline.cache.misses", cache.stats.misses)
        ctx.record("pipeline.cache.bytes", tree_bytes(cache_dir))
        ctx.record("materialize.archive_bytes_per_file", sparse.extras["archive_bytes"] / sparse.files)
        for phase in ("directories", "files", "finalize"):
            ctx.sample(f"materialize.{phase}_s", sparse.phase_seconds.get(phase, 0.0))
        os.remove(archive)
        shutil.rmtree(cache_dir)
        return 1.0

    def finish(self, ctx: RunContext) -> None:
        """Traced runs only: a size ladder and one constraint resolution.

        Each stage's exponent is the slope of log time against log files
        between a cold generation at half scale and the traced full-scale
        iterations.
        """
        if not ctx.traced or not ctx.traced_iterations:
            return
        recorder = ctx.recorder
        recorder.enabled = True
        recorder.iteration = f"{self.name}-{ctx.seed}-constraints"
        self.traced_metrics.update(resolve_hard_case(ctx, self.resolver_values))
        recorder.unwrap_all()

        half = scaled_default_config(self.scale / 2.0, seed=ctx.seed)
        recorder.iteration = f"{self.name}-{ctx.seed}-ladder"
        pipeline = default_pipeline()
        instrument(ctx, pipeline)
        recorder.step = "ladder"
        pipeline.run(half)
        recorder.unwrap_all()
        recorder.enabled = False
        files_ratio = self.config.resolved_num_files() / half.resolved_num_files()
        for stage in STAGES:
            full = np.median([
                recorder.span_seconds(iteration, f"stage.{stage}", step="generate")
                for iteration in ctx.traced_iterations
            ])
            small = recorder.span_seconds(recorder.iteration, f"stage.{stage}")
            exponent = math.log(full / small) / math.log(files_ratio) if full > 0 and small > 0 else 0.0
            self.traced_metrics[f"pipeline.{stage}.exponent"] = exponent


class AgedReplay:
    """A quarter-scale image aged to layout 0.8, then a Zipf mix and churn replayed."""

    name = "aged_replay"

    def __init__(self, size: float) -> None:
        self.scale = 0.25 * size
        self.num_ops = max(1_000, int(200_000 * size))

    def setup(self, ctx: RunContext) -> None:
        ctx.setup_part("warm_up", warm_up)
        config = ctx.setup_part("config", scaled_default_config, self.scale, seed=ctx.seed)
        self.image = image = ctx.setup_part("image", generate, config)
        ctx.fingerprint("image", image_fingerprint(image))
        self.zipf = ctx.setup_part(
            "trace_synth.zipf",
            synthesize_zipf_mix,
            image,
            ZipfMixSpec(num_ops=self.num_ops, read_fraction=6.0, write_fraction=2.0,
                        stat_fraction=2.0, zipf_s=1.1),
            seed=ctx.seed,
        )
        self.churn = ctx.setup_part(
            "trace_synth.churn", synthesize_churn, ChurnSpec(num_ops=self.num_ops), seed=ctx.seed
        )

    def prepare(self, ctx: RunContext) -> None:
        """Age the image once.  Aging costs about 3 s to 30 s with the seed
        (files rewritten, passes, free-space flushes), so neither a pass nor
        ``setup_s`` could be compared across seeds with it inside; it is the
        per-layer ``age_s``."""
        image = self.image
        ager = TraceAger(image, LAYOUT_TARGET, np.random.default_rng(ctx.seed))
        ctx.recorder.wrap(ager, "age", "trace.age")
        start = time.perf_counter()
        aged = ager.age()
        ctx.samples["age"].append(time.perf_counter() - start)
        ctx.record("layout_score_error", aged.error)
        ctx.record("trace.aging.files_rewritten", aged.files_rewritten)
        ctx.record("trace.aging.ops", len(aged.trace))
        ctx.fingerprint("aged_image", image_fingerprint(image))
        # Replay mutates the image, so every iteration restores this copy.
        self.snapshot = pickle.dumps(image, pickle.HIGHEST_PROTOCOL)
        del self.image

    def iteration(self, ctx: RunContext, index: int) -> float:
        recorder = ctx.recorder
        image = pickle.loads(self.snapshot)
        # A cache of 1/20 of the image's bytes: the working set exceeds it.
        cache = BufferCache(capacity_bytes=max(1, image.tree.total_bytes // 20))
        replayer = TraceReplayer(image, cache=cache)
        recorder.wrap(replayer, "replay", "trace.replay")
        zipf, replay_s = ctx.step("replay", replayer.replay, self.zipf)
        churner = TraceReplayer()
        recorder.wrap(churner, "replay", "trace.replay")
        churn, churn_s = ctx.step("churn", churner.replay, self.churn)

        ctx.sample("replay_ops_per_s", zipf.total_operations / replay_s)
        ctx.sample("churn_ops_per_s", churn.total_operations / churn_s)
        # The churn trace creates more than its standalone disk holds, so the
        # simulated disk refuses some creates (ENOSPC), and then the reads,
        # writes, deletes and renames of the files never created.  Refusing
        # them is the simulator's correct answer and repeats exactly for a
        # seed: they count as attempted and show as ``trace.replay.skipped``,
        # not as failures.  The Zipf mix touches only the image's own files,
        # so a skip there is a failure.
        ctx.operations(zipf.total_operations + churn.total_operations, zipf.skipped)
        create = churn.per_kind.get("create")
        ctx.check(
            "churn_skips_follow_refused_creates",
            churn.skipped == 0 or (create is not None and create.skipped > 0),
        )
        ctx.record("trace.replay.executed", zipf.executed + churn.executed)
        ctx.record("trace.replay.skipped", zipf.skipped + churn.skipped)
        ctx.record("trace.replay.simulated_ms", zipf.simulated_ms + churn.simulated_ms)
        ctx.record("trace.replay.cache_hit_ratio", zipf.cache_hit_ratio)
        ctx.record("workloads.cache.hits", zipf.cache_hits)
        ctx.record("workloads.cache.misses", zipf.cache_misses)
        return 1.0

    def finish(self, ctx: RunContext) -> None:
        pass


class ContentArchive:
    """A small image with generated content, streamed into a tar archive."""

    name = "content_archive"

    def __init__(self, size: float) -> None:
        self.scale = 0.01 * size

    def setup(self, ctx: RunContext) -> None:
        ctx.setup_part("warm_up", warm_up)
        self.config = ctx.setup_part(
            "config",
            scaled_default_config,
            self.scale,
            seed=ctx.seed,
            generate_content=True,
            content=ContentPolicy(text_model="hybrid"),
        )
        self.image = ctx.setup_part("image", generate, self.config)
        ctx.fingerprint("image", image_fingerprint(self.image))
        tree = self.image.tree
        text_bytes = sum(node.size for node in tree.files if node.content_kind in TEXT_KINDS)
        self.work_mb = (text_bytes + (tree.total_bytes - text_bytes) / OTHER_MB_PER_TEXT_MB) / 1e6

    def prepare(self, ctx: RunContext) -> None:
        pass

    def iteration(self, ctx: RunContext, index: int) -> float:
        image = self.image
        ctx.recorder.wrap_generator(
            image.content_generator, "iter_chunks", into="content", out_of="materialize"
        )
        archive = ctx.fresh_path("content.tar")
        result, seconds = ctx.step(
            "materialize", materialize_image, image, TarSink(archive), span="materialize"
        )
        ctx.sample("content_MBps", result.total_bytes / 1e6 / seconds)
        ctx.record("content.bytes", result.total_bytes)
        for phase in ("directories", "files", "finalize"):
            ctx.sample(f"materialize.{phase}_s", result.phase_seconds.get(phase, 0.0))
        if index == 0:
            ctx.fingerprint("content_digest", result.content_digest)
            ctx.fingerprint("archive_sha256", result.extras["archive_sha256"])
            check_counts(ctx, image, self.config, result)
            with tarfile.open(archive) as handle:
                members = {member.name: member.size for member in handle if member.isfile()}
            expected = {node.path().lstrip("/"): node.size for node in image.tree.files}
            ctx.check("tar_members_and_sizes", members == expected)
            verification, _ = ctx.step(
                "verify", verify_round_trip, image, result, config=self.config, span="verify",
                in_pass=False,
            )
            ctx.check("verify_round_trip", verification.passed)
        os.remove(archive)
        # The text and binary bytes of the image vary several-fold with the
        # seed, so the pass is the archive time per text-equivalent MB.
        return self.work_mb

    def finish(self, ctx: RunContext) -> None:
        pass


WORKLOADS = {workload.name: workload for workload in (PaperImage, AgedReplay, ContentArchive)}

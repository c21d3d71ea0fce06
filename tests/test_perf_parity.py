"""Parity proofs for the optimised hot paths.

Every optimisation in the library claims to be numerically invisible
under the default float64 configuration.  The straightforward forms
they replaced live here as oracles:

* the coordinate-split distance kernel is bitwise equal to the einsum
  oracle :func:`_segment_distances_reference`;
* the coded containment lookup matches the per-stick oracle
  :func:`_contained` on every chromosome, in-frame or not;
* the inline CDF selection draws the same parents from the same RNG
  stream as ``rng.choice``;
* the GA's per-run fitness memo reproduces the full-rescoring oracle
  :func:`_score_full_rescoring` bitwise, and a row's fitness does not
  depend on its position or company in the batch;
* execution backends (serial / threads / processes) produce
  byte-identical analysis serialisations;
* the whole optimised stack reproduces the oracle stack end to end.

The float32 fitness fast path is the one *documented* deviation: this
file also pins its tolerance.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ga import engine
from repro.ga.engine import GAConfig, GeneticAlgorithm
from repro.ga.operators import OperatorConfig
from repro.imaging.image import ensure_mask
from repro.imaging.morphology import box_element, dilate
from repro.model import fitness as fitness_module
from repro.model.containment import ContainmentChecker
from repro.model.fitness import FitnessConfig, SilhouetteFitness
from repro.model.geometry import (
    sample_segment_points,
    segment_distances,
    world_to_image,
)
from repro.model.pose import StickPose, forward_kinematics
from repro.model.sticks import default_body
from repro.perf import executors
from repro.perf.executors import ParallelConfig
from repro.serialization import analysis_to_dict
from repro.video.synthesis.render import person_mask_for_pose

BODY = default_body(60.0)
SHAPE = (120, 160)


# ----------------------------------------------------------------------
# Oracles: the straightforward forms of the optimised kernels.
# ----------------------------------------------------------------------
def _segment_distances_reference(
    points: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """The original einsum kernel, the bitwise ground truth."""
    starts = segments[:, 0, :]  # (S, 2)
    deltas = segments[:, 1, :] - starts  # (S, 2)
    length_sq = np.einsum("sd,sd->s", deltas, deltas)  # (S,)

    # Vector from each start to each point: (N, S, 2)
    rel = points[:, None, :] - starts[None, :, :]
    dot = np.einsum("nsd,sd->ns", rel, deltas)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(length_sq > 0.0, dot / length_sq, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = starts[None, :, :] + t[..., None] * deltas[None, :, :]
    diff = points[:, None, :] - closest
    return np.sqrt(np.einsum("nsd,nsd->ns", diff, diff))


def _containment_region(mask, margin=2):
    """The dilated silhouette a default ContainmentChecker tests against."""
    return dilate(mask, box_element(3), iterations=margin) if margin else mask


def _contained(region, segments, samples=5, min_fraction=0.9):
    """Per-stick containment of one chromosome's ``(8, 2, 2)`` sticks."""
    height, width = region.shape
    points = sample_segment_points(segments, samples)
    rc = world_to_image(points, height)
    rows = np.rint(rc[:, 0]).astype(int)
    cols = np.rint(rc[:, 1]).astype(int)
    in_frame = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    if not in_frame.all():
        return False
    return float(region[rows, cols].mean()) >= min_fraction


def _contained_batch(region, genes):
    segments = forward_kinematics(np.atleast_2d(genes), BODY)
    return np.array([_contained(region, sticks) for sticks in segments])


def _pick_parents_with_choice(self, rng, cdf):
    """Ranking selection through ``rng.choice``, which rebuilds the cdf."""
    weights = self._ranking_weights(cdf.size)
    pa = int(rng.choice(weights.size, p=weights))
    pb = int(rng.choice(weights.size, p=weights))
    return pa, pb


def _score_full_rescoring(population, fitness_fn, memo):
    """Score every row of every generation, the GA before its memo."""
    scores = np.asarray(fitness_fn(population), dtype=np.float64)
    return scores, population.shape[0]


def _install_oracles(monkeypatch):
    """Route fitness, containment, selection and GA scoring through the oracles."""
    monkeypatch.setattr(
        fitness_module, "segment_distances", _segment_distances_reference
    )
    original_init = ContainmentChecker.__init__

    def init_with_oracle(
        self, mask, dims, margin=2, samples_per_stick=5, min_inside_fraction=0.9
    ):
        original_init(
            self, mask, dims, margin, samples_per_stick, min_inside_fraction
        )
        region = _containment_region(ensure_mask(mask), margin)
        self.oracle = lambda sticks: _contained(
            region, sticks, samples_per_stick, min_inside_fraction
        )

    monkeypatch.setattr(ContainmentChecker, "__init__", init_with_oracle)
    monkeypatch.setattr(
        ContainmentChecker,
        "_check_batch",
        lambda self, segments: np.array(
            [self.oracle(sticks) for sticks in segments], dtype=bool
        ),
    )
    monkeypatch.setattr(
        GeneticAlgorithm, "_pick_parents", _pick_parents_with_choice
    )
    monkeypatch.setattr(engine, "_score", _score_full_rescoring)


def _setup():
    pose = StickPose.standing(60.0, 50.0)
    mask = person_mask_for_pose(pose, BODY, SHAPE)
    return pose, mask


def _random_genes(rng, count, pose):
    """Chromosomes scattered around a real pose, some far off-frame."""
    base = pose.to_genes()
    genes = base[None, :] + rng.normal(0.0, 8.0, size=(count, base.size))
    genes[:: max(count // 4, 1), 0] += 300.0  # force out-of-frame samples
    return genes


class TestDistanceKernel:
    def test_fast_matches_reference_bitwise(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(-5.0, 120.0, size=(257, 2))
        segments = rng.uniform(0.0, 100.0, size=(13, 2, 2))
        fast = segment_distances(points, segments)
        reference = _segment_distances_reference(points, segments)
        assert fast.dtype == reference.dtype
        np.testing.assert_array_equal(fast, reference)

    def test_degenerate_segment_bitwise(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0.0, 50.0, size=(31, 2))
        segments = rng.uniform(0.0, 50.0, size=(4, 2, 2))
        segments[2, 1] = segments[2, 0]  # zero-length stick
        np.testing.assert_array_equal(
            segment_distances(points, segments),
            _segment_distances_reference(points, segments),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.just(2)),
            elements=st.sampled_from([0.0, 1.0, -2.5, 3.0, 7.25, 40.0]),
        ),
        segments=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(2), st.just(2)),
            elements=st.sampled_from([0.0, 1.0, -2.5, 3.0, 7.25, 40.0]),
        ),
        degenerate=st.lists(st.booleans(), min_size=6, max_size=6),
        on_points=st.booleans(),
    )
    def test_fast_matches_oracle_on_degenerate_geometry(
        self, points, segments, degenerate, on_points
    ):
        """Zero-length sticks and points on stick ends stay bitwise equal.

        Coordinates come from a small grid so coincident points and
        collinear configurations turn up constantly.
        """
        for index, collapse in enumerate(degenerate[: len(segments)]):
            if collapse:
                segments[index, 1] = segments[index, 0]
        if on_points:
            # Put query points exactly on stick endpoints.
            ends = segments.reshape(-1, 2)
            take = min(len(points), len(ends))
            points[:take] = ends[:take]
        fast = segment_distances(points, segments)
        oracle = _segment_distances_reference(points, segments)
        np.testing.assert_array_equal(fast, oracle)
        assert np.all(np.isfinite(fast))


class TestContainmentParity:
    def test_batch_matches_legacy_loop(self):
        pose, mask = _setup()
        checker = ContainmentChecker(mask, BODY)
        genes = _random_genes(np.random.default_rng(2), 64, pose)
        fast = checker.check(genes)
        legacy = _contained_batch(_containment_region(mask), genes)
        assert legacy.any() and not legacy.all()  # both verdicts exercised
        np.testing.assert_array_equal(fast, legacy)

    def test_single_memoised_path_matches_legacy(self):
        pose, mask = _setup()
        checker = ContainmentChecker(mask, BODY)
        region = _containment_region(mask)
        for genes in _random_genes(np.random.default_rng(3), 16, pose):
            expected = bool(_contained_batch(region, genes)[0])
            assert checker.check(genes) == expected
            # Second call hits the verdict cache; must not flip.
            assert checker.check(genes) == expected

    def test_inside_fraction_matches_rederived_reference(self):
        pose, mask = _setup()
        checker = ContainmentChecker(mask, BODY)
        region = _containment_region(mask)
        genes = _random_genes(np.random.default_rng(4), 32, pose)
        fractions = checker.inside_fraction(genes)

        segments = forward_kinematics(genes, BODY)
        for p in range(genes.shape[0]):
            points = sample_segment_points(segments[p], 5)
            rc = world_to_image(points, mask.shape[0])
            rows = np.rint(rc[:, 0]).astype(int)
            cols = np.rint(rc[:, 1]).astype(int)
            in_frame = (
                (rows >= 0)
                & (rows < mask.shape[0])
                & (cols >= 0)
                & (cols < mask.shape[1])
            )
            inside = np.zeros(points.shape[0], dtype=bool)
            inside[in_frame] = region[rows[in_frame], cols[in_frame]]
            assert fractions[p] == inside.mean()


class TestSelectionParity:
    def test_inline_cdf_matches_rng_choice_stream(self):
        """The searchsorted draw consumes the identical RNG stream."""
        weights = np.random.default_rng(5).uniform(0.1, 1.0, size=40)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        rng_a = np.random.default_rng(6)
        rng_b = np.random.default_rng(6)
        for _ in range(500):
            expected = int(rng_a.choice(weights.size, p=weights))
            inline = int(cdf.searchsorted(rng_b.random(), side="right"))
            assert inline == expected
        # Both generators end in the same state: later draws line up too.
        assert rng_a.random() == rng_b.random()


def _stripped(analysis, drop_config=False):
    payload = analysis_to_dict(analysis)
    payload.pop("trace", None)  # timings differ run to run
    payload["config"].pop("parallel", None)  # execution-only knob
    if drop_config:
        # Legacy-vs-optimised runs legitimately carry different configs
        # (fixed chunk); the parity claim is about the numeric output,
        # not the config echo.
        payload.pop("config", None)
        payload.pop("config_hash", None)
    return json.dumps(payload, sort_keys=True)


def _analyze(config, jump, annotation, seed=3):
    from repro.pipeline import JumpAnalyzer

    return JumpAnalyzer(config).analyze(
        jump.video, annotation=annotation, rng=np.random.default_rng(seed)
    )


@pytest.fixture(scope="module")
def small_jump():
    from repro.model.annotation import simulate_human_annotation
    from repro.video.synthesis.dataset import SyntheticJumpConfig, synthesize_jump
    from repro.video.synthesis.motion import JumpParameters

    jump = synthesize_jump(
        SyntheticJumpConfig(seed=3, params=JumpParameters(num_frames=6))
    )
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(3),
    )
    return jump, annotation


class TestEndToEndParity:
    def test_backends_are_byte_identical(self, small_jump, monkeypatch):
        from repro.config import get_preset

        # A single-CPU runner would otherwise cap the pool to one worker
        # and run in-process; this test must prove parity across a
        # *real* pool.
        monkeypatch.setattr(executors, "available_cpus", lambda: 2)
        jump, annotation = small_jump
        outputs = {}
        for backend in ("serial", "threads", "processes"):
            config = dataclasses.replace(
                get_preset("fast"),
                parallel=ParallelConfig(backend=backend, workers=2),
            )
            outputs[backend] = _stripped(_analyze(config, jump, annotation))
        assert outputs["serial"] == outputs["threads"]
        assert outputs["serial"] == outputs["processes"]

    def test_optimized_stack_matches_legacy_stack(self, small_jump, monkeypatch):
        """Defaults vs the oracle kernels + full GA re-scoring."""
        from repro.config import get_preset

        jump, annotation = small_jump
        config = get_preset("fast")
        optimized = _stripped(_analyze(config, jump, annotation), drop_config=True)

        tracker = config.tracker
        legacy_config = dataclasses.replace(
            config,
            parallel=ParallelConfig(),
            tracker=dataclasses.replace(
                tracker,
                fitness=dataclasses.replace(tracker.fitness, chunk_size=64),
            ),
        )
        _install_oracles(monkeypatch)
        legacy = _stripped(
            _analyze(legacy_config, jump, annotation), drop_config=True
        )
        assert optimized == legacy


class TestFitnessMemoParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(4, 12),
        distinct=st.integers(1, 12),
        chunk=st.sampled_from([0, 1, 2, 3, 5]),
        rates=st.sampled_from([(0.2, 0.01), (0.5, 0.3), (0.0, 0.0)]),
        contained=st.booleans(),
    )
    def test_memo_matches_full_rescoring(
        self, seed, size, distinct, chunk, rates, contained
    ):
        """Same best genes and history as scoring every row, bit for bit.

        Initial populations repeat rows, and low operator rates make
        most offspring copies of a parent, so memo hits of every kind
        (elites, fallback copies, unchanged children, duplicates) occur.
        """
        pose, mask = _setup()
        fitness = SilhouetteFitness(mask, BODY, FitnessConfig(chunk_size=chunk))
        checker = ContainmentChecker(mask, BODY) if contained else None
        rng = np.random.default_rng(seed)
        base = _random_genes(rng, min(distinct, size), pose)
        initial = base[rng.integers(0, len(base), size)]
        config = GAConfig(
            population_size=size,
            max_generations=6,
            patience=None,
            offspring_attempts=2,
            operators=OperatorConfig(
                crossover_rate=rates[0], mutation_rate=rates[1]
            ),
        )

        def run():
            return GeneticAlgorithm(config).run(
                initial,
                fitness.evaluate,
                validity_fn=checker.check if checker else None,
                rng=np.random.default_rng(seed),
            )

        memo = run()
        with mock.patch.object(engine, "_score", _score_full_rescoring):
            full = run()
        assert memo.best_genes.tobytes() == full.best_genes.tobytes()
        assert [s.best_fitness for s in memo.history] == [
            s.best_fitness for s in full.history
        ]
        assert [s.mean_fitness for s in memo.history] == [
            s.mean_fitness for s in full.history
        ]
        assert memo.total_evaluations <= full.total_evaluations

    def test_lone_fresh_row_scores_as_in_full_batch(self):
        pose, mask = _setup()
        fitness = SilhouetteFitness(mask, BODY)
        rng = np.random.default_rng(9)
        known = _random_genes(rng, 8, pose)
        # Rows whose one-row score differs from their score in a wider
        # batch: the case the two-row batch exists for.
        lone = [
            row
            for row in _random_genes(rng, 32, pose)
            if fitness.evaluate(row[None, :])[0]
            != fitness.evaluate(np.stack([row, known[0]]))[0]
        ]
        assert lone
        memo = {}
        engine._score(known, fitness.evaluate, memo)
        population = np.vstack([known, lone[0]])
        scores, rows = engine._score(population, fitness.evaluate, memo)
        assert rows == 2
        np.testing.assert_array_equal(scores, fitness.evaluate(population))

    def test_score_does_not_depend_on_batch_position(self):
        """A one-row chunk tail scores as it would in any wider batch."""
        pose, mask = _setup()
        fitness = SilhouetteFitness(mask, BODY, FitnessConfig(chunk_size=4))
        genes = _random_genes(np.random.default_rng(10), 9, pose)
        paired = [fitness.evaluate(np.stack([row, genes[0]]))[0] for row in genes]
        np.testing.assert_array_equal(fitness.evaluate(genes), paired)


class TestFitnessPrecision:
    def test_chunking_only_moves_scores_by_ulps(self):
        """Chunk width reorders the final mean's summation, nothing more."""
        pose, mask = _setup()
        genes = _random_genes(np.random.default_rng(7), 48, pose)
        scores = {
            chunk: SilhouetteFitness(
                mask, BODY, FitnessConfig(chunk_size=chunk)
            ).evaluate(genes)
            for chunk in (0, 1, 7, 64)
        }
        for chunk, values in scores.items():
            np.testing.assert_allclose(values, scores[0], rtol=1e-13, atol=0.0)

    def test_chunk_widths_from_two_up_are_bitwise_equal(self):
        pose, mask = _setup()
        genes = _random_genes(np.random.default_rng(7), 47, pose)
        scores = [
            SilhouetteFitness(mask, BODY, FitnessConfig(chunk_size=chunk)).evaluate(
                genes
            )
            for chunk in (0, 2, 3, 7, 64)
        ]
        for values in scores[1:]:
            np.testing.assert_array_equal(values, scores[0])

    def test_float32_fast_path_stays_within_tolerance(self):
        pose, mask = _setup()
        genes = _random_genes(np.random.default_rng(8), 48, pose)
        exact = SilhouetteFitness(mask, BODY, FitnessConfig()).evaluate(genes)
        fast = SilhouetteFitness(
            mask, BODY, FitnessConfig(precision="float32")
        ).evaluate(genes)
        assert np.all(np.abs(fast - exact) <= 5e-3 * np.abs(exact))

"""Tests for the fault-injection package and the chaos harness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError
from repro.faults import (
    FAULT_KINDS,
    FRAME_FAULT_KINDS,
    ChaosReport,
    FaultOutcome,
    FaultPlan,
    FaultSpec,
    apply_stage_faults,
    default_fault_grid,
    fault_kinds,
    inject_video_faults,
    run_chaos,
)
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.annotation import simulate_human_annotation
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig, JumpAnalyzer, RobustnessConfig


def _fast_analyzer_config(**overrides):
    return AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=24, max_generations=8, patience=4),
            fitness=FitnessConfig(max_points=400),
        ),
        **overrides,
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="drop_frame"):
            FaultSpec(kind="meteor_strike")

    @pytest.mark.parametrize(
        "kwargs",
        [{"frame": -2}, {"magnitude": 0.0}, {"times": 0}],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="noise_burst", **kwargs)

    def test_resolve_frame_middle(self):
        assert FaultSpec(kind="noise_burst").resolve_frame(21) == 10
        assert FaultSpec(kind="noise_burst", frame=3).resolve_frame(21) == 3

    def test_resolve_frame_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="noise_burst", frame=30).resolve_frame(10)

    def test_classification(self):
        assert FaultSpec(kind="drop_frame").is_frame_fault
        assert FaultSpec(kind="stage_exception").is_stage_fault
        assert set(fault_kinds()) == set(FRAME_FAULT_KINDS)


class TestFaultPlan:
    def test_filters(self):
        plan = default_fault_grid(include_delay=True)
        assert len(plan) == len(FAULT_KINDS)
        assert {s.kind for s in plan.frame_faults()} == set(FRAME_FAULT_KINDS)
        assert len(plan.stage_faults()) == 2

    def test_describe(self):
        plan = FaultPlan((FaultSpec(kind="drop_frame", frame=4),))
        assert "drop_frame" in plan.describe()
        assert FaultPlan().describe() == "empty fault plan"


class TestInjectors:
    def test_deterministic(self, short_jump):
        plan = FaultPlan((FaultSpec(kind="noise_burst", seed=9),))
        once = inject_video_faults(short_jump.video, plan)
        twice = inject_video_faults(short_jump.video, plan)
        assert np.array_equal(once.frames, twice.frames)

    def test_drop_frame_shortens(self, short_jump):
        plan = FaultPlan((FaultSpec(kind="drop_frame"),))
        faulted = inject_video_faults(short_jump.video, plan)
        assert len(faulted) == len(short_jump.video) - 1

    def test_drop_frame_needs_two_frames(self, short_jump):
        one = short_jump.video.clip(0, 1)
        with pytest.raises(ConfigurationError):
            inject_video_faults(one, FaultPlan((FaultSpec(kind="drop_frame"),)))

    @pytest.mark.parametrize(
        "kind",
        ["blank_silhouette", "noise_burst", "occlude_band", "corrupt_dtype"],
    )
    def test_only_target_frame_perturbed(self, short_jump, kind):
        target = 4
        plan = FaultPlan((FaultSpec(kind=kind, frame=target),))
        faulted = inject_video_faults(short_jump.video, plan)
        clean = short_jump.video.frames
        assert not np.array_equal(faulted.frames[target], clean[target])
        for index in range(len(short_jump.video)):
            if index != target:
                assert np.array_equal(faulted.frames[index], clean[index])
        assert faulted.frames.min() >= 0.0
        assert faulted.frames.max() <= 1.0

    def test_source_video_untouched(self, short_jump):
        before = short_jump.video.frames.copy()
        inject_video_faults(
            short_jump.video, FaultPlan((FaultSpec(kind="noise_burst"),))
        )
        assert np.array_equal(short_jump.video.frames, before)


class TestStageFaults:
    def test_unknown_stage_rejected(self):
        analyzer = JumpAnalyzer(_fast_analyzer_config())
        plan = FaultPlan((FaultSpec(kind="stage_exception", stage="nope"),))
        with pytest.raises(ConfigurationError, match="unknown stage"):
            apply_stage_faults(analyzer, plan)

    def test_exception_absorbed_by_retry(self, short_jump):
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        analyzer = JumpAnalyzer(_fast_analyzer_config())
        plan = FaultPlan(
            (FaultSpec(kind="stage_exception", stage="tracking", times=1),)
        )
        analysis = apply_stage_faults(analyzer, plan).analyze(
            short_jump.video, annotation=annotation
        )
        assert analysis.trace.counter("runtime.retries") == 1
        assert len(analysis.poses) == len(short_jump.video)

    def test_exception_fatal_when_strict(self, short_jump):
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        analyzer = JumpAnalyzer(
            _fast_analyzer_config(robustness=RobustnessConfig(enabled=False))
        )
        plan = FaultPlan(
            (FaultSpec(kind="stage_exception", stage="tracking", times=1),)
        )
        with pytest.raises(ReproError, match="injected fault"):
            apply_stage_faults(analyzer, plan).analyze(
                short_jump.video, annotation=annotation
            )


class TestChaosReport:
    def _outcome(self, kind="noise_burst", survived=True, degraded=False):
        return FaultOutcome(
            spec=FaultSpec(kind=kind),
            survived=survived,
            degraded=degraded,
            unhealthy_frames=(4,) if degraded else (),
        )

    def test_rates(self):
        report = ChaosReport(
            (
                self._outcome(survived=True),
                self._outcome(survived=True, degraded=True),
                self._outcome(survived=False),
            )
        )
        assert report.survival_rate == pytest.approx(2 / 3)
        assert report.degraded_rate == pytest.approx(1 / 2)
        assert len(report.failures()) == 1

    def test_empty_report_survives(self):
        assert ChaosReport().survival_rate == 1.0
        assert ChaosReport().degraded_rate == 0.0

    def test_render_and_serialise(self):
        report = ChaosReport(
            (self._outcome(survived=True, degraded=True),)
        )
        table = report.render_table()
        assert "degraded" in table and "frames [4]" in table
        data = report.to_dict()
        assert data["num_faults"] == 1
        assert data["outcomes"][0]["verdict"] == "degraded"


class TestRunChaos:
    def test_single_fault_survival(self, short_jump):
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        plan = FaultPlan((FaultSpec(kind="blank_silhouette"),))
        report = run_chaos(
            short_jump.video,
            annotation=annotation,
            config=_fast_analyzer_config(),
            plan=plan,
        )
        (outcome,) = report.outcomes
        assert outcome.survived
        assert outcome.degraded
        # The diagnostics name exactly the faulted frame.
        assert outcome.unhealthy_frames == (
            FaultSpec(kind="blank_silhouette").resolve_frame(
                len(short_jump.video)
            ),
        )

    def test_bad_plan_raises_instead_of_scoring_survival(self, short_jump):
        """A harness misconfiguration (fault frame out of range) must
        propagate, not be recorded as a pipeline non-survival that
        silently drags down the chaos gate's survival rate."""
        plan = FaultPlan((FaultSpec(kind="blank_silhouette", frame=10_000),))
        with pytest.raises(ConfigurationError, match="frame 10000"):
            run_chaos(
                short_jump.video, config=_fast_analyzer_config(), plan=plan
            )

    def test_failures_are_recorded_not_raised(self, short_jump):
        annotation = simulate_human_annotation(
            short_jump.motion.poses[0],
            short_jump.dims,
            mask=short_jump.person_masks[0],
            rng=np.random.default_rng(0),
        )
        strict = _fast_analyzer_config(
            robustness=RobustnessConfig(enabled=False)
        )
        plan = FaultPlan(
            (FaultSpec(kind="stage_exception", stage="tracking"),)
        )
        report = run_chaos(
            short_jump.video,
            annotation=annotation,
            config=strict,
            plan=plan,
        )
        (outcome,) = report.outcomes
        assert not outcome.survived
        assert outcome.error_type == "ReproError"
        assert report.survival_rate == 0.0


class TestOpsFaultOutcomeLeakGate:
    """A leaked pool slot fails a scenario even when it survived."""

    def test_leaked_slots_downgrade_verdict(self):
        from repro.faults import OpsChaosReport, OpsFaultOutcome

        clean = OpsFaultOutcome(name="kill_worker_mid_job", survived=True)
        leaky = OpsFaultOutcome(
            name="drain_under_load", survived=True, leaked_slots=2
        )
        assert clean.verdict == "ok"
        assert leaky.verdict == "leaked"
        assert leaky.to_dict()["leaked_slots"] == 2
        report = OpsChaosReport((clean, leaky))
        assert report.survival_rate == 0.5
        assert report.failures() == (leaky,)
        assert "2 leaked slot(s)" in report.render_table()

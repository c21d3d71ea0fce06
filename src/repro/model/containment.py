"""Silhouette-containment feasibility test for chromosomes.

The paper rejects any chromosome "not in the boundary of the
silhouette" both when building the initial population and after
crossover/mutation.  A chromosome is *contained* when sample points
along every stick fall inside the silhouette, up to a small dilation
margin that absorbs rasterisation error.
"""

from __future__ import annotations

import numpy as np

from .pose import GENES, StickPose, forward_kinematics
from .sticks import BodyDimensions
from ..imaging.image import ensure_mask
from ..imaging.morphology import box_element, dilate


class ContainmentChecker:
    """Tests whether stick models stay inside one silhouette.

    Parameters
    ----------
    mask:
        The silhouette.
    dims:
        Body dimensions for forward kinematics.
    margin:
        Dilation (in pixels) applied to the silhouette before testing.
        The paper's silhouettes are noisy, so a margin of 2–3 px keeps
        correct poses feasible without admitting wild ones.
    samples_per_stick:
        Number of points sampled along each stick.
    min_inside_fraction:
        Fraction of all sampled points that must land inside; 1.0
        reproduces the paper's strict rule, slightly lower values
        tolerate silhouettes with holes.
    """

    def __init__(
        self,
        mask: np.ndarray,
        dims: BodyDimensions,
        margin: int = 2,
        samples_per_stick: int = 5,
        min_inside_fraction: float = 0.9,
    ) -> None:
        mask = ensure_mask(mask)
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        if samples_per_stick < 1:
            raise ValueError(
                f"samples_per_stick must be >= 1, got {samples_per_stick}"
            )
        if not 0.0 < min_inside_fraction <= 1.0:
            raise ValueError(
                f"min_inside_fraction must be in (0, 1], got {min_inside_fraction}"
            )
        region = dilate(mask, box_element(3), iterations=margin) if margin else mask
        self._height, self._width = mask.shape
        self._dims = dims
        self._min_fraction = min_inside_fraction
        # Cached sampling offsets: `check` runs once per offspring
        # attempt, so per-call setup must be nil.
        if samples_per_stick == 1:
            self._ts = np.array([0.5])
        else:
            self._ts = np.linspace(0.0, 1.0, samples_per_stick)
        # Coded lookup with a one-cell border: 0 = out of frame, 1 = in
        # frame but outside the region, 2 = inside the region.  Sample
        # coordinates clamp onto the border, so frame-bounds testing,
        # index clipping and the region gather collapse into one take.
        coded = np.zeros((self._height + 2, self._width + 2), dtype=np.int8)
        coded[1:-1, 1:-1] = 1 + region.astype(np.int8)
        self._coded_flat = np.ascontiguousarray(coded).reshape(-1)
        # Verdicts memoised by chromosome bytes.  Offspring are often
        # bit-exact parent copies (low crossover/mutation rates, elites
        # recurring as parents), so the GA re-tests identical
        # chromosomes many times per frame.  The checker is rebuilt per
        # silhouette, which bounds the cache's lifetime.
        self._verdicts: dict[bytes, bool] = {}

    def check(self, genes: np.ndarray) -> np.ndarray:
        """Boolean feasibility for each chromosome of a ``(P, 10)`` batch."""
        genes = np.asarray(genes, dtype=np.float64)
        squeeze = genes.ndim == 1
        if squeeze:
            genes = genes[None, :]
        if genes.shape[1] != GENES:
            raise ValueError(f"expected (P, {GENES}) chromosomes, got {genes.shape}")
        if genes.shape[0] == 1:
            key = genes.tobytes()
            verdict = self._verdicts.get(key)
            if verdict is None:
                segments = forward_kinematics(genes, self._dims)
                verdict = bool(self._check_batch(segments)[0])
                if len(self._verdicts) >= 65536:  # runaway-population guard
                    self._verdicts.clear()
                self._verdicts[key] = verdict
            return verdict if squeeze else np.array([verdict])
        results = self._check_batch(forward_kinematics(genes, self._dims))
        return bool(results[0]) if squeeze else results

    def _check_batch(self, segments: np.ndarray) -> np.ndarray:
        """One numpy pass over all ``(P, 8, 2, 2)`` segment batches.

        Samples every stick at the same points as
        ``sample_segment_points``, rounds them onto the pixel grid, and
        requires every sample in frame and ``min_inside_fraction`` of
        them inside the dilated silhouette.  The per-stick oracle in
        ``tests/test_perf_parity.py`` pins it chromosome for chromosome.
        """
        vals = self._sample_codes(segments)
        # Code 0 anywhere means a sample fell out of frame (the strict
        # gate); the inside fraction counts only code-2 samples.
        all_in = vals.min(axis=1) > 0
        return all_in & ((vals == 2).mean(axis=1) >= self._min_fraction)

    def _sample_codes(self, segments: np.ndarray) -> np.ndarray:
        """Per-sample region codes for ``(P, 8, 2, 2)`` segment batches.

        Returns a ``(P, 8 * samples)`` int8 array of lookups into the
        coded silhouette.  Index arithmetic stays in float64 (the
        rounded coordinates are integral and tiny, so it is exact) and
        clamps onto the zero border, so the whole test is a handful of
        ufunc calls — this runs once per offspring attempt.
        """
        population = segments.shape[0]
        starts = segments[:, :, None, 0, :]  # (P, 8, 1, 2)
        deltas = segments[:, :, None, 1, :] - starts
        pts = starts + self._ts[None, None, :, None] * deltas  # (P, 8, T, 2)
        x = pts[..., 0].reshape(population, -1)
        y = pts[..., 1].reshape(population, -1)
        rows = np.rint((self._height - 1) - y)
        cols = np.rint(x)
        # np.minimum/np.maximum directly: the np.clip wrapper costs more
        # than the whole lookup at offspring batch sizes.
        np.minimum(rows, float(self._height), out=rows)
        np.maximum(rows, -1.0, out=rows)
        np.minimum(cols, float(self._width), out=cols)
        np.maximum(cols, -1.0, out=cols)
        index = rows * float(self._width + 2)
        index += cols
        index += float(self._width + 3)  # shift onto the padded grid
        return self._coded_flat[index.astype(np.intp)]

    def check_pose(self, pose: StickPose) -> bool:
        """Feasibility of a single pose."""
        return bool(self.check(pose.to_genes()))

    def inside_fraction(self, genes: np.ndarray) -> np.ndarray:
        """Fraction of sampled stick points inside the silhouette.

        Out-of-frame points count as outside.  Used as a soft penalty
        by the single-frame baseline, where hard rejection would
        discard essentially every random chromosome.
        """
        genes = np.asarray(genes, dtype=np.float64)
        squeeze = genes.ndim == 1
        if squeeze:
            genes = genes[None, :]
        segments = forward_kinematics(genes, self._dims)
        vals = self._sample_codes(segments)
        fractions = (vals == 2).mean(axis=1)
        return float(fractions[0]) if squeeze else fractions

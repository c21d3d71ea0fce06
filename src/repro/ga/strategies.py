"""Registry of pose-search strategies for the temporal tracker.

The tracker's per-frame search is pluggable: every strategy consumes
the same :class:`SearchRequest` (temporally seeded population, window
centre, fitness, containment predicate) and returns the shared
:class:`~repro.ga.convergence.SearchResult`, so they are selectable by
name via ``tracker.strategy`` with no imports changed at call sites:

* ``"ga"`` — the paper's elitist genetic algorithm (default);
* ``"hill_climb"`` — stochastic hill climbing from the window centre;
* ``"random_search"`` — pure random sampling inside the windows;
* ``"nelder_mead"`` — scipy simplex refinement from the window centre.

The classical baselines are budget-matched to the GA: they receive one
fitness evaluation per population slot the configured GA fills at full
term (``population_size × max_generations``; the GA itself scores only
the distinct chromosomes among them), so changing
``tracker.ga.max_generations`` scales every strategy consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .baselines import HillClimbConfig, hill_climb, nelder_mead, random_search
from .convergence import SearchResult
from .engine import GeneticAlgorithm
from ..registry import Registry
from ..runtime import Instrumentation

if TYPE_CHECKING:
    from .temporal import TrackerConfig


@dataclass(slots=True)
class SearchRequest:
    """Everything one per-frame pose search may use.

    ``population`` is the temporally seeded initial population,
    ``start`` the window-centre chromosome (previous or extrapolated
    pose), ``sampler`` draws fresh window-constrained chromosomes, and
    ``validity_fn`` is the hard-containment predicate (``None`` when
    disabled).  ``config`` is the tracker configuration, whose
    ``ga`` block also sets the shared evaluation budget.
    """

    population: np.ndarray
    start: np.ndarray
    fitness_fn: Callable[[np.ndarray], np.ndarray]
    validity_fn: Callable[[np.ndarray], np.ndarray] | None
    sampler: Callable[[int], np.ndarray]
    config: "TrackerConfig"
    rng: np.random.Generator
    instrumentation: Instrumentation

    @property
    def budget(self) -> int:
        """Population slots the configured GA fills at full term."""
        ga = self.config.ga
        return ga.population_size * ga.max_generations


SearchStrategy = Callable[[SearchRequest], SearchResult]

#: Pose-search strategies selectable via ``tracker.strategy``.
SEARCH_STRATEGIES: Registry[SearchStrategy] = Registry("search strategy")


@SEARCH_STRATEGIES.register("ga")
def _ga(request: SearchRequest) -> SearchResult:
    return GeneticAlgorithm(
        request.config.ga, instrumentation=request.instrumentation
    ).run(
        request.population,
        request.fitness_fn,
        validity_fn=request.validity_fn,
        rng=request.rng,
    )


@SEARCH_STRATEGIES.register("hill_climb")
def _hill_climb(request: SearchRequest) -> SearchResult:
    return hill_climb(
        request.start,
        request.fitness_fn,
        config=HillClimbConfig(iterations=request.budget),
        rng=request.rng,
    )


@SEARCH_STRATEGIES.register("random_search")
def _random_search(request: SearchRequest) -> SearchResult:
    return random_search(
        request.sampler,
        request.fitness_fn,
        budget=request.budget,
        batch_size=request.config.ga.population_size,
    )


@SEARCH_STRATEGIES.register("nelder_mead")
def _nelder_mead(request: SearchRequest) -> SearchResult:
    return nelder_mead(
        request.start, request.fitness_fn, max_evaluations=request.budget
    )

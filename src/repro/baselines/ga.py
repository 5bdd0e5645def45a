"""Genetic algorithm baseline (paper Sec. 5.2).

"We also compared against a genetic algorithm ('GA') directly optimizing a
bitvector representation of the circuit."  The GA works on the free-cell
bitvector encoding (see :mod:`repro.prefix.encoding`): tournament
selection, uniform crossover, per-bit mutation, elitism, with every child
legalized before synthesis.  Each generation is varied as one population
(:func:`repro.opt.variation.breed`): the rng draws run child by child,
then the whole generation is legalized in batched sweeps.  The first
generations of this GA also serve as CircuitVAE's initial dataset,
exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..engine.telemetry import stage
from ..opt.optimizer import SearchAlgorithm
from ..opt.simulator import CircuitSimulator, Evaluation
# mutate/crossover are breed's per-design form; perfbench's traced run
# wraps them under this module's names, so they stay importable here.
from ..opt.variation import breed, crossover, mutate, random_population  # noqa: F401
from ..prefix.graph import PrefixGraph
from ..prefix.structures import STRUCTURES

__all__ = ["GAConfig", "GeneticAlgorithm"]


@dataclass(frozen=True)
class GAConfig:
    """Genetic-algorithm hyperparameters."""

    population_size: int = 32
    tournament_size: int = 3
    crossover_prob: float = 0.7
    mutation_rate: float = 0.02
    elite_count: int = 2
    seed_with_classics: bool = True


class GeneticAlgorithm(SearchAlgorithm):
    """Steady generational GA over circuit bitvectors."""

    method_name = "GA"

    def __init__(self, config: Optional[GAConfig] = None):
        self.config = config or GAConfig()
        if self.config.elite_count >= self.config.population_size:
            raise ValueError("elite_count must be smaller than the population")
        self.generation: int = 0

    # ------------------------------------------------------------------
    def _initial_population(
        self, n: int, rng: np.random.Generator
    ) -> List[PrefixGraph]:
        config = self.config
        population: List[PrefixGraph] = []
        if config.seed_with_classics:
            population.extend(builder(n) for builder in STRUCTURES.values())
        fill = config.population_size - len(population)
        if fill > 0:
            population.extend(random_population(n, fill, rng))
        return population[: config.population_size]

    def _tournament(self, fitness: np.ndarray, rng: np.random.Generator) -> int:
        contenders = rng.integers(0, len(fitness), size=self.config.tournament_size)
        return int(min(contenders, key=lambda i: fitness[i]))

    # ------------------------------------------------------------------
    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        config = self.config
        telemetry = simulator.telemetry
        population = self._initial_population(simulator.task.n, rng)
        # Whole generations go through one query_many round-trip, so an
        # engine-backed simulator deduplicates and synthesizes each one
        # in a single vectorized pass.
        evaluations = simulator.query_many(population)
        if not evaluations:
            return simulator.best()
        population = [e.graph for e in evaluations]
        fitness = np.array([e.cost for e in evaluations])

        while not simulator.exhausted():
            self.generation += 1
            with stage(telemetry, "variation"):
                elite_idx = np.argsort(fitness)[: config.elite_count]
                children: List[PrefixGraph] = [population[int(i)] for i in elite_idx]
                children += breed(
                    population,
                    config.population_size - len(children),
                    lambda: self._tournament(fitness, rng),
                    rng,
                    crossover_prob=config.crossover_prob,
                    mutation_rate=config.mutation_rate,
                )
            evaluations = simulator.query_many(children)
            if not evaluations:
                break
            # Cache hits return instantly, so some children may be stale
            # duplicates; the next generation's fitness covers whatever
            # actually got evaluated.
            population = [e.graph for e in evaluations]
            fitness = np.array([e.cost for e in evaluations])
        return simulator.best()

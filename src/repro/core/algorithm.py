"""The CircuitVAE outer loop (paper Algorithm 1).

Each acquisition round: recompute Eq.-2 sample weights, (re)fit the VAE +
cost predictor on the weighted dataset, propose latents, decode them, and
query the synthesis oracle on the decoded designs.  The loop runs until
the simulation budget is exhausted and returns the lowest-cost circuit
found.

:class:`LatentLoop` is that loop, written once.  CircuitVAE proposes by
launching ``m`` parallel prior-regularized gradient-descent trajectories
from cost-weighted starting latents and decoding the latents captured
along them; latent BO (:class:`repro.baselines.bo.LatentBO`) runs the
same loop with a GP/EI proposal.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .. import nn
from ..engine.telemetry import stage
from ..opt.optimizer import SearchAlgorithm
from ..opt.simulator import BudgetExhausted, CircuitSimulator, Evaluation
from ..opt.variation import mutate, random_population
from ..prefix.graph import PrefixGraph
from .dataset import CircuitDataset
from .search import (
    SearchConfig,
    SearchTrace,
    decode_and_query,
    initialize_latents,
    latent_gradient_search,
)
from .training import TrainConfig, report_training_round, train_model
from .vae import CircuitVAEModel, VAEConfig

__all__ = ["CircuitVAEConfig", "CircuitVAEOptimizer", "build_initial_dataset"]


@dataclass(frozen=True)
class CircuitVAEConfig:
    """All hyperparameters of Algorithm 1 in one place.

    Defaults follow the paper: beta=0.01, lambda=10, k=0.001, gamma
    log-uniform in [0.01, 0.1]; structural sizes are scaled for CPU (see
    DESIGN.md).  ``initial_samples`` is the initial-dataset size D_0; the
    paper launches runs at several values and groups them into one curve.
    """

    latent_dim: int = 24
    base_channels: int = 8
    hidden_dim: int = 128
    k: float = 1e-3
    initial_samples: int = 64
    first_round_epochs: int = 30
    train: TrainConfig = field(default_factory=TrainConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    fixed_init_graph: Optional[PrefixGraph] = None  # for the Fig. 4 ablation


def build_initial_dataset(
    simulator: CircuitSimulator,
    size: int,
    rng: np.random.Generator,
    dataset: Optional[CircuitDataset] = None,
    k: float = 1e-3,
) -> CircuitDataset:
    """Collect D_0 the way the paper does: early GA-style exploration.

    Seeds with the classical structures, then fills the budget with
    mutation-of-best exploration (equivalent to the "first few generations
    of GA" the paper uses), so the dataset mixes known-good designs with
    diverse random variations.
    """
    from ..prefix.structures import STRUCTURES

    dataset = dataset or CircuitDataset(k=k)
    n = simulator.task.n
    seeds: List[PrefixGraph] = [builder(n) for builder in STRUCTURES.values()]
    seeds += random_population(n, max(size // 4, 4), rng)
    # The seeds do not depend on each other's results, so they go out as
    # one query_plan batch (one vectorized pass on an engine-backed
    # simulator).  The batch ends where a design-by-design loop would
    # stop — right after the seed that brings the dataset to ``size``, so
    # at least one seed is always queried — and a budget refusal (None)
    # ends the whole build there, as BudgetExhausted would.
    count, counted = len(dataset), set()
    for stop, graph in enumerate(seeds, start=1):
        key = graph.key()
        if key not in counted and graph not in dataset:
            counted.add(key)
            count += 1
        if count >= size:
            break
    for evaluation in simulator.query_plan(seeds[:stop]):
        if evaluation is None:
            return dataset
        dataset.add_evaluations([evaluation])
    try:
        # Mutation-of-sampled exploration until the dataset reaches `size`.
        while len(dataset) < size:
            weights = dataset.weights()
            idx = rng.choice(len(dataset), p=weights)
            child = mutate(dataset.graphs[idx], rng, rate=0.03)
            dataset.add_evaluations([simulator.query(child)])
    except BudgetExhausted:
        pass
    return dataset


class LatentLoop(SearchAlgorithm):
    """Algorithm 1's outer loop; a subclass supplies only its proposal.

    Each round retrains the model on the weighted dataset, asks
    :meth:`_propose` for latents, decodes them into one batched query
    and grows the dataset.  CircuitVAE proposes by prior-regularized
    gradient search, latent BO (:mod:`repro.baselines.bo`) by GP/EI
    acquisition; everything else — model, D_0, Adam, retraining,
    decode, the stall fallback and their rng order — is this one loop.
    """

    def __init__(self) -> None:
        self.model: Optional[CircuitVAEModel] = None
        self.dataset: Optional[CircuitDataset] = None

    @abc.abstractmethod
    def _propose(self, rng: np.random.Generator, telemetry) -> np.ndarray:
        """Latents to decode this round (``self.model`` is trained)."""

    def _run_loop(
        self,
        config: CircuitVAEConfig,
        simulator: CircuitSimulator,
        rng: np.random.Generator,
        explore_size: int,
    ) -> Evaluation:
        # Per-run engine telemetry (None against a plain serial simulator):
        # training/search/decode stages land next to the engine's own
        # synthesis/cache counters in the RunRecord.
        telemetry = simulator.telemetry
        self.model = model = CircuitVAEModel(
            VAEConfig(
                n=simulator.task.n,
                latent_dim=config.latent_dim,
                base_channels=config.base_channels,
                hidden_dim=config.hidden_dim,
            ),
            rng,
        )
        self.dataset = dataset = build_initial_dataset(
            simulator, config.initial_samples, rng, k=config.k
        )
        optimizer = nn.Adam(model.parameters(), lr=config.train.lr)

        # Durable per-cell training checkpoints (set by the run-directory
        # layer); each acquisition round gets its own tag so resume can
        # skip exactly the epochs the interrupted attempt completed.
        checkpoint_dir = getattr(simulator, "train_checkpoint_dir", None)
        round_index = 0
        while not simulator.exhausted():
            # Lines 4-5: reweight and refit on the grown dataset.
            epochs = config.first_round_epochs if round_index == 0 else config.train.epochs
            with stage(telemetry, "train"):
                stats = train_model(
                    model,
                    dataset,
                    rng,
                    config=replace(config.train, epochs=epochs),
                    optimizer=optimizer,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_tag=f"round{round_index:03d}",
                )
            report_training_round(simulator, stats, round_index)
            round_index += 1

            # Lines 6-11: propose latents, decode them, batch-query the
            # designs (one ``query_many``, vectorized on an engine-backed
            # simulator) and extend the dataset.
            _designs, evaluations = decode_and_query(
                model, self._propose(rng, telemetry), simulator, rng, telemetry
            )
            if dataset.add_evaluations(evaluations) == 0 and not simulator.exhausted():
                # Every proposal decoded to a known design: inject
                # mutation noise so the loop keeps acquiring.
                parents = [
                    dataset.graphs[i] for i in dataset.sample_indices(explore_size, rng)
                ]
                explore = [mutate(g, rng, rate=0.05) for g in parents]
                dataset.add_evaluations(simulator.query_many(explore))
        return simulator.best()


class CircuitVAEOptimizer(LatentLoop):
    """Latent circuit optimization: the paper's primary contribution."""

    method_name = "CircuitVAE"

    def __init__(self, config: Optional[CircuitVAEConfig] = None):
        super().__init__()
        self.config = config or CircuitVAEConfig()
        self.traces: List[SearchTrace] = []

    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        return self._run_loop(self.config, simulator, rng, self.config.search.num_parallel)

    def _propose(self, rng: np.random.Generator, telemetry) -> np.ndarray:
        # Lines 6-8: initialize and run prior-regularized search; decode
        # the latents captured along every trajectory.
        search = self.config.search
        z0 = initialize_latents(
            self.model,
            self.dataset,
            search.num_parallel,
            rng,
            mode=search.init_mode,
            fixed_graph=self.config.fixed_init_graph,
        )
        trace = latent_gradient_search(self.model, z0, rng, search, telemetry=telemetry)
        self.traces.append(trace)
        return trace.captured_latents

"""The CircuitVAE outer loop (paper Algorithm 1).

Each acquisition round: recompute Eq.-2 sample weights, (re)fit the VAE +
cost predictor on the weighted dataset, launch ``m`` parallel
prior-regularized gradient-descent trajectories from cost-weighted
starting latents, decode the latents captured along the trajectories, and
query the synthesis oracle on the decoded designs.  The loop runs until
the simulation budget is exhausted and returns the lowest-cost circuit
found.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .. import nn
from ..engine.telemetry import stage
from ..opt.optimizer import SearchAlgorithm
from ..opt.simulator import BudgetExhausted, CircuitSimulator, Evaluation
from ..opt.variation import mutate, random_population
from ..prefix.graph import PrefixGraph
from ..prefix.structures import sklansky
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
    try:
        for graph in seeds:
            dataset.add_evaluations([simulator.query(graph)])
            if len(dataset) >= size:
                break
        # Mutation-of-sampled exploration until the dataset reaches `size`.
        while len(dataset) < size:
            weights = dataset.weights()
            idx = rng.choice(len(dataset), p=weights)
            child = mutate(dataset.graphs[idx], rng, rate=0.03)
            dataset.add_evaluations([simulator.query(child)])
    except BudgetExhausted:
        pass
    return dataset


class CircuitVAEOptimizer(SearchAlgorithm):
    """Latent circuit optimization: the paper's primary contribution."""

    method_name = "CircuitVAE"

    def __init__(self, config: Optional[CircuitVAEConfig] = None):
        self.config = config or CircuitVAEConfig()
        self.model: Optional[CircuitVAEModel] = None
        self.dataset: Optional[CircuitDataset] = None
        self.traces: List[SearchTrace] = []
        self.round_best: List[float] = []

    # ------------------------------------------------------------------
    def _ensure_model(self, n: int, rng: np.random.Generator) -> CircuitVAEModel:
        if self.model is None:
            vae_config = VAEConfig(
                n=n,
                latent_dim=self.config.latent_dim,
                base_channels=self.config.base_channels,
                hidden_dim=self.config.hidden_dim,
            )
            self.model = CircuitVAEModel(vae_config, rng)
        return self.model

    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        config = self.config
        # Per-run engine telemetry (None against a plain serial simulator):
        # training/search/decode stages land next to the engine's own
        # synthesis/cache counters in the RunRecord.
        telemetry = simulator.telemetry
        model = self._ensure_model(simulator.task.n, rng)
        self.dataset = build_initial_dataset(
            simulator, config.initial_samples, rng, k=config.k
        )
        optimizer = nn.Adam(model.parameters(), lr=config.train.lr)

        # Durable per-cell training checkpoints (set by the run-directory
        # layer); each acquisition round gets its own tag so resume can
        # skip exactly the epochs the interrupted attempt completed.
        checkpoint_dir = getattr(simulator, "train_checkpoint_dir", None)
        first_round = True
        round_index = 0
        while not simulator.exhausted():
            # Lines 4-5: reweight and refit on the grown dataset.
            epochs = config.first_round_epochs if first_round else config.train.epochs
            with stage(telemetry, "train"):
                stats = train_model(
                    model,
                    self.dataset,
                    rng,
                    config=replace(config.train, epochs=epochs),
                    optimizer=optimizer,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_tag=f"round{round_index:03d}",
                )
            report_training_round(simulator, stats, round_index)
            first_round = False
            round_index += 1

            # Lines 6-8: initialize and run prior-regularized search.
            z0 = initialize_latents(
                model,
                self.dataset,
                config.search.num_parallel,
                rng,
                mode=config.search.init_mode,
                fixed_graph=config.fixed_init_graph,
            )
            trace = latent_gradient_search(
                model, z0, rng, config.search, telemetry=telemetry
            )
            self.traces.append(trace)

            # Lines 9-11: decode, batch-query, extend the dataset.  The
            # whole captured population goes through one ``query_many``,
            # which an engine-backed simulator vectorizes.
            _designs, evaluations = decode_and_query(
                model,
                trace.captured_latents,
                simulator,
                rng,
                telemetry,
            )
            new_points = self.dataset.add_evaluations(evaluations)
            if simulator.history:
                self.round_best.append(simulator.best().cost)
            if new_points == 0 and not simulator.exhausted():
                # Decoder collapsed onto known designs: inject mutation
                # noise so the loop keeps acquiring (rare at small n).
                parents = [
                    self.dataset.graphs[i]
                    for i in self.dataset.sample_indices(
                        config.search.num_parallel, rng
                    )
                ]
                explore = [mutate(g, rng, rate=0.05) for g in parents]
                self.dataset.add_evaluations(
                    simulator.query_many(explore)
                )
        return simulator.best()

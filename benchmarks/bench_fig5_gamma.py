"""Figure 5: the effect of the prior-regularization weight gamma.

Trains one CircuitVAE on an initial dataset, then runs latent gradient
descent at several fixed gammas plus the log-uniform default, reporting
per setting: mean final latent norm, mean *predicted* cost, mean *actual*
cost of the decoded designs, and the overfitting gap (actual - predicted).

Paper's findings to check: low gamma -> trajectories leave the data
region (large norms) and actual cost far exceeds predicted (surrogate
overfitting); high gamma -> small norms, small gap, limited exploration;
the log-uniform band gives the best actual costs.
"""

import numpy as np
import pytest

from repro.circuits import adder_task
from repro.core import (
    CircuitVAEModel,
    SearchConfig,
    VAEConfig,
    build_initial_dataset,
    train_model,
)
from repro.core.search import initialize_latents, latent_gradient_search
from repro.opt import CircuitSimulator
from repro.utils.tables import format_table

from common import BITWIDTHS, INITIAL, once, vae_config

GAMMAS = [0.001, 0.01, 0.1, 1.0]


def run_gamma_sweep():
    n = min(BITWIDTHS)
    task = adder_task(n, 0.66)
    rng = np.random.default_rng(0)
    sim = CircuitSimulator(task, budget=None)
    cfg = vae_config()
    model = CircuitVAEModel(
        VAEConfig(
            n=n,
            latent_dim=cfg.latent_dim,
            base_channels=cfg.base_channels,
            hidden_dim=cfg.hidden_dim,
        ),
        rng,
    )
    dataset = build_initial_dataset(sim, INITIAL, rng, k=cfg.k)
    from dataclasses import replace

    train_model(model, dataset, rng, replace(cfg.train, epochs=40))

    # The training-data region of latent space (the gray cloud in Fig. 5).
    from repro import nn

    with nn.no_grad():
        data_latents, _ = model.encode(dataset.grids())
    data_latents = data_latents.data
    data_norm = float(np.linalg.norm(data_latents, axis=1).mean())

    def distance_to_data(z):
        diffs = z[:, None, :] - data_latents[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(-1)).min(axis=1).mean())

    rows = []
    stats = {}
    settings = [(f"{g}", g, g) for g in GAMMAS] + [("log-uniform[0.01,0.1]", 0.01, 0.1)]
    for label, lo, hi in settings:
        search = SearchConfig(
            num_parallel=16, num_steps=60, capture_every=60, step_size=0.2,
            gamma_low=lo, gamma_high=hi,
        )
        z0 = initialize_latents(model, dataset, search.num_parallel, np.random.default_rng(1))
        trace = latent_gradient_search(model, z0, np.random.default_rng(2), search)
        finals = trace.trajectories[-1]
        norms = np.linalg.norm(finals, axis=1)
        dist = distance_to_data(finals)
        predicted = trace.predicted_costs[-search.num_parallel:] * model.cost_std + model.cost_mean
        designs = model.sample_designs(finals, np.random.default_rng(3))
        actual = np.array([sim.query(d).cost for d in designs])
        gap = float(actual.mean() - predicted.mean())
        stats[label] = dict(norm=float(norms.mean()), dist=dist, gap=gap, actual=float(actual.mean()))
        rows.append([
            label, f"{norms.mean():.2f}", f"{dist:.2f}", f"{predicted.mean():.3f}",
            f"{actual.mean():.3f}", f"{gap:+.3f}",
        ])
    return data_norm, rows, stats


def test_fig5_gamma(benchmark):
    data_norm, rows, stats = once(benchmark, run_gamma_sweep)
    print()
    print(f"Fig.5: latent search vs gamma (training-data latent norm ~ {data_norm:.2f})")
    print(format_table(
        ["gamma", "final ||z||", "dist to data", "predicted cost", "actual cost", "overfit gap"],
        rows,
    ))
    # Reproduction checks.  The paper's mechanism: trajectories that end
    # far from the training data overfit the surrogate (actual >> predicted).
    # (1) gamma controls the endpoint: lower gamma ends farther from the
    #     origin than higher gamma.
    assert stats["0.001"]["norm"] > stats["1.0"]["norm"]
    # (2) overfitting tracks distance-to-data: the setting ending farthest
    #     from the data gaps worse than the setting ending nearest.
    farthest = max(stats, key=lambda k: stats[k]["dist"])
    nearest = min(stats, key=lambda k: stats[k]["dist"])
    assert stats[farthest]["gap"] > stats[nearest]["gap"], stats

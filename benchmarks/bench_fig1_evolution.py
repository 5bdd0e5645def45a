"""Figure 1: a sample evolution of adders discovered by CircuitVAE.

Starts the search space around the Sklansky structure (the paper's Fig. 1
starting point) and prints the sequence of strictly-improving designs the
optimizer discovers, from the seed to the best found, with their costs —
the flip-book the paper shows.
"""

import numpy as np

from repro.circuits import adder_task
from repro.core import CircuitVAEOptimizer
from repro.opt import CircuitSimulator
from repro.prefix import sklansky
from repro.utils.plotting import render_prefix_graph

from common import BITWIDTHS, BUDGET, once, vae_config


def run_evolution():
    n = max(BITWIDTHS)
    task = adder_task(n, 0.66)
    sim = CircuitSimulator(task, budget=BUDGET)
    optimizer = CircuitVAEOptimizer(vae_config())
    optimizer.run(sim, np.random.default_rng(0))

    seed_cost = sim.query(sklansky(n)).cost  # cached if already seen
    improvements = []
    best = float("inf")
    for evaluation in sim.history:
        if evaluation.cost < best:
            best = evaluation.cost
            improvements.append(evaluation)
    return n, seed_cost, improvements


def test_fig1_evolution(benchmark):
    n, seed_cost, improvements = once(benchmark, run_evolution)
    print()
    print(f"Fig.1: evolution of {n}-bit adders (Sklansky seed cost {seed_cost:.3f})")
    # Print the seed, a few milestones, and the final best.
    milestones = improvements[:: max(1, len(improvements) // 4)][:4] + [improvements[-1]]
    for evaluation in milestones:
        print(render_prefix_graph(
            evaluation.graph,
            label=f"sim #{evaluation.sim_index}: cost {evaluation.cost:.3f}",
        ))
        print()
    # Reproduction checks: a strictly improving sequence ending below the
    # Sklansky seed.
    costs = [e.cost for e in improvements]
    assert all(a > b for a, b in zip(costs[:-1], costs[1:]))
    assert costs[-1] < seed_cost

"""Figure 8: best designs for the gray-to-binary converter vs the adder.

Runs CircuitVAE on both tasks at similar delay weights and renders the
winning prefix graphs side by side.  Paper's observation to check: the
two best designs are structurally different (the converter has no
carry-merge cost structure, so its best graph differs substantially from
the adder's), demonstrating task adaptation rather than a single learned
prior.
"""

import numpy as np

from repro.circuits import adder_task, gray_to_binary_task
from repro.core import CircuitVAEOptimizer
from repro.opt import CircuitSimulator
from repro.prefix import hamming_distance, structure_summary
from repro.utils.plotting import render_prefix_graph
from repro.utils.tables import format_table

from common import BUDGET, GRAY_BITS, once, vae_config


def run_both():
    n = GRAY_BITS
    best = {}
    for label, task in [
        ("adder", adder_task(n, 0.66)),
        ("gray", gray_to_binary_task(n=n, delay_weight=0.6)),
    ]:
        sim = CircuitSimulator(task, budget=BUDGET)
        optimizer = CircuitVAEOptimizer(vae_config())
        best[label] = optimizer.run(sim, np.random.default_rng(0))
    return best


def test_fig8_best_designs(benchmark):
    best = once(benchmark, run_both)
    print()
    for label, evaluation in best.items():
        print(render_prefix_graph(evaluation.graph, label=f"best {label} design"))
        print()
    rows = []
    for label, evaluation in best.items():
        s = structure_summary(evaluation.graph)
        rows.append([
            label, f"{evaluation.cost:.3f}", s["nodes"], s["depth"],
            s["max_fanout"], f"{s['mean_fanout']:.2f}",
        ])
    print(format_table(["task", "cost", "nodes", "depth", "max fanout", "mean fanout"], rows))
    distance = hamming_distance(best["adder"].graph, best["gray"].graph)
    print(f"grid hamming distance between the two best designs: {distance}")
    # Reproduction check: the designs differ structurally.
    assert distance > 0

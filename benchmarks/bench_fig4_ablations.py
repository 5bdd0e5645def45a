"""Figure 4: ablating CircuitVAE's search and training components.

Four variants on the same task (the paper uses 32-bit, omega = 0.66, the
largest initial dataset):

* full CircuitVAE (cost-weighted init + data reweighting),
* no data reweighting (uniform training weights),
* search initialized from the prior,
* search initialized from the Sklansky encoding.

All four are labeled variants of the one registered "CircuitVAE" method
in a single experiment spec — the Sklansky init travels as the structure
*name*, resolved to a graph at the task bitwidth by the registry.

Paper's finding to check: full CircuitVAE dominates; Sklansky init beats
prior init; removing reweighting hurts.
"""

from repro.api import ExperimentSpec, MethodSpec, TaskSpec
from repro.utils.plotting import ascii_plot, format_series_csv

from common import BITWIDTHS, BUDGET, SEEDS, once, session, vae_params


def variant_specs():
    base = vae_params()
    return (
        MethodSpec("CircuitVAE", label="full", params=base),
        MethodSpec(
            "CircuitVAE", label="no-reweight",
            params=vae_params(train={**base["train"], "reweight": False}),
        ),
        MethodSpec(
            "CircuitVAE", label="prior-init",
            params=vae_params(search={**base["search"], "init_mode": "prior"}),
        ),
        MethodSpec(
            "CircuitVAE", label="sklansky-init",
            params=vae_params(
                search={**base["search"], "init_mode": "fixed-graph"},
                fixed_init_graph="sklansky",
            ),
        ),
    )


def run_ablations():
    # The paper ablates on 32-bit — its *smaller* experiment width; we
    # correspondingly use the smaller width of the scaled grid.
    n = min(BITWIDTHS)
    spec = ExperimentSpec(
        name=f"fig4-ablations-{n}",
        task=TaskSpec(circuit_type="adder", n=n, delay_weight=0.66),
        methods=variant_specs(),
        budget=BUDGET,
        num_seeds=SEEDS,
    )
    result = session().run(spec)
    budgets = result.budgets()
    series, rows, finals = {}, [], {}
    for name, agg in result.curves().items():
        series[name] = (budgets, agg["median"].tolist())
        finals[name] = float(agg["median"][-1])
        for b, med in zip(budgets, agg["median"]):
            rows.append([n, name, b, float(med)])
    return series, rows, finals


def test_fig4_ablations(benchmark):
    series, rows, finals = once(benchmark, run_ablations)
    print()
    print(ascii_plot(series, title="Fig.4: ablations (median best cost)",
                     xlabel="simulations", ylabel="cost"))
    print(format_series_csv(["bitwidth", "variant", "budget", "median"], rows))
    # Reproduction checks (with slack for the reduced scale): the full
    # method is never beaten by more than noise.
    assert finals["full"] <= min(finals.values()) * 1.02, finals

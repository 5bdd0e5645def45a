"""Extra ablation (DESIGN.md): the beta (KL weight) of the beta-VAE.

The paper fixes beta = 0.01 everywhere.  This bench sweeps beta to show
why: tiny beta lets posteriors drift from the prior (hurting
prior-regularized search, whose pull targets the origin), huge beta
collapses the latent code (hurting reconstruction and cost shaping).
The three betas are labeled variants of one registered method in a
single experiment spec.
"""

from repro.api import ExperimentSpec, MethodSpec, TaskSpec
from repro.utils.tables import format_table

from common import BITWIDTHS, BUDGET, once, SEEDS, session, vae_params

BETAS = [0.0001, 0.01, 1.0]


def run_beta_sweep():
    base = vae_params()
    spec = ExperimentSpec(
        name=f"ablation-beta-{min(BITWIDTHS)}",
        task=TaskSpec(circuit_type="adder", n=min(BITWIDTHS), delay_weight=0.66),
        methods=tuple(
            MethodSpec(
                "CircuitVAE", label=f"beta={beta}",
                params=vae_params(train={**base["train"], "beta": beta}),
            )
            for beta in BETAS
        ),
        budget=BUDGET,
        num_seeds=SEEDS,
        base_seed=1,
    )
    result = session().run(spec)
    curves = result.curves([BUDGET])
    return {beta: float(curves[f"beta={beta}"]["median"][0]) for beta in BETAS}


def test_ablation_beta(benchmark):
    finals = once(benchmark, run_beta_sweep)
    print()
    print(format_table(
        ["beta (KL weight)", "median best cost"],
        [[f"{b}", f"{v:.3f}"] for b, v in finals.items()],
    ))
    # Check: the paper's beta is no worse than the extremes by more than noise.
    assert finals[0.01] <= min(finals.values()) * 1.03, finals

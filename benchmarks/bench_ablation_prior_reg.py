"""Extra ablation (DESIGN.md): prior regularization vs box constraint vs none.

The paper argues (Sec. 4.2) that a hard box around the origin — the
constraint Tripp et al. use — is worse than the soft prior pull because a
high-dimensional box has exponentially many uninhabited corners, and that
*no* constraint overfits the surrogate.  This bench runs the full
optimizer under the three regimes (labeled search-config variants in one
experiment spec) and compares achieved cost.
"""

from repro.api import ExperimentSpec, MethodSpec, TaskSpec
from repro.utils.tables import format_table

from common import BITWIDTHS, BUDGET, once, SEEDS, session, vae_params


def regime_specs():
    base = vae_params()
    search = base["search"]
    return (
        MethodSpec("CircuitVAE", label="prior-reg (paper)", params=base),
        MethodSpec(
            "CircuitVAE", label="box-constraint",
            params=vae_params(search={**search, "box_constraint": 3.0}),
        ),
        MethodSpec(
            "CircuitVAE", label="unregularized",
            params=vae_params(search={
                **search, "gamma_low": 1e-6, "gamma_high": 2e-6, "box_constraint": None,
            }),
        ),
    )


def run_regimes():
    spec = ExperimentSpec(
        name=f"ablation-prior-reg-{min(BITWIDTHS)}",
        task=TaskSpec(circuit_type="adder", n=min(BITWIDTHS), delay_weight=0.66),
        methods=regime_specs(),
        budget=BUDGET,
        num_seeds=SEEDS,
    )
    result = session().run(spec)
    curves = result.curves([BUDGET])
    return {name: float(agg["median"][0]) for name, agg in curves.items()}


def test_ablation_prior_regularization(benchmark):
    finals = once(benchmark, run_regimes)
    print()
    print(format_table(
        ["search regularization", "median best cost"],
        [[k, f"{v:.3f}"] for k, v in finals.items()],
    ))
    # Check: the paper's soft prior regularization is never beaten by more
    # than noise by either alternative.
    assert finals["prior-reg (paper)"] <= min(finals.values()) * 1.02, finals

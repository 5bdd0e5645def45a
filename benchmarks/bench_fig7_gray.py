"""Figure 7: gray-to-binary converter, cost vs simulation budget.

Same four-method comparison as Fig. 3 but on the XOR-prefix task of
Sec. 5.5 (the paper: 26-bit, omega = 0.6, Nangate45).  The claim to
check: CircuitVAE outperforms all baselines on this task too — the
framework is circuit-type agnostic because only the cell mapping changes,
which at the spec level is a one-word edit: ``circuit_type="gray"``.
"""

from repro.api import ExperimentSpec, TaskSpec
from repro.utils.plotting import ascii_plot, format_series_csv

from common import BUDGET, GRAY_BITS, SEEDS, method_specs, once, session


def run_gray():
    spec = ExperimentSpec(
        name=f"fig7-gray{GRAY_BITS}",
        task=TaskSpec(circuit_type="gray", n=GRAY_BITS, delay_weight=0.6),
        methods=method_specs(),
        budget=BUDGET,
        num_seeds=SEEDS,
    )
    result = session().run(spec)
    budgets = result.budgets()
    series, rows = {}, []
    for method, agg in result.curves().items():
        series[method] = (budgets, agg["median"].tolist())
        for b, med, lo, hi in zip(budgets, agg["median"], agg["q25"], agg["q75"]):
            rows.append([GRAY_BITS, method, b, float(med), float(lo), float(hi)])
    return series, rows


def test_fig7_gray(benchmark):
    series, rows = once(benchmark, run_gray)
    print()
    print(ascii_plot(
        series,
        title=f"Fig.7: {GRAY_BITS}-bit gray-to-binary, omega=0.6 (median best cost)",
        xlabel="simulations", ylabel="cost",
    ))
    print(format_series_csv(["bits", "method", "budget", "median", "q25", "q75"], rows))
    final = {m: s[1][-1] for m, s in series.items()}
    best_other = min(v for m, v in final.items() if m != "CircuitVAE")
    assert final["CircuitVAE"] <= best_other * 1.015, final

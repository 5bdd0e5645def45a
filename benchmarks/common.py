"""Shared configuration for the figure/table benchmarks.

Every bench regenerates one table or figure of the paper at one reduced
scale: bitwidths, budgets and seed counts are scaled so the whole suite
runs on a laptop CPU in tens of minutes (the paper used an A100 plus a
24-core simulation farm per run).  For reference, the paper-size grid
is 32/64-bit adders, a 26-bit gray-to-binary converter, a 31-bit
real-world adder, budgets of 5000 and 20000 simulations, 5 seeds, a VAE
of latent 48 / 16 base channels / hidden 256, and 1000 initial designs.

The qualitative comparisons (who wins at a budget, by what factor) are
scale-stable.

Benches describe their grids as :class:`repro.api.ExperimentSpec` values
and run them through one process-wide :class:`repro.api.Session` — one
persistent cache + worker pool for the whole bench process, so methods
and seeds share synthesis results, and (with ``REPRO_CACHE_DIR`` set) so
do *repeated invocations* of a bench, which then perform zero new
synthesis calls.  ``REPRO_ENGINE_WORKERS`` (default 1 = serial) sizes the
multiprocessing synthesis pool.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.api import MethodSpec, Session, build_config
from repro.core import CircuitVAEConfig

BITWIDTHS = [8, 16]
GRAY_BITS = 13
REAL_BITS = 16
BUDGET = 140
HIGH_BUDGET = 180
SEEDS = 2
VAE_SIZES = dict(latent_dim=16, base_channels=6, hidden_dim=64)
INITIAL = 48
DELAY_WEIGHTS = [0.33, 0.66, 0.95]

_SESSION: Optional[Session] = None


def session() -> Session:
    """The process-wide session every bench routes its runs through."""
    global _SESSION
    if _SESSION is None:
        _SESSION = Session()  # REPRO_CACHE_DIR / REPRO_ENGINE_WORKERS
    return _SESSION


def vae_params(**overrides) -> Dict:
    """Benchmark-scale CircuitVAE parameters as a JSON-able params dict.

    Small acquisition batches (8 trajectories x 2 captures) buy more
    retraining rounds per budget — the right trade at bench budgets.
    Nested ``train``/``search`` overrides replace the whole block, so
    merge with the base dicts when varying a single knob (see the Fig. 4
    ablation bench).
    """
    base = dict(
        initial_samples=INITIAL,
        first_round_epochs=25,
        train=dict(epochs=10, batch_size=32),
        search=dict(num_parallel=8, num_steps=40, capture_every=20, step_size=0.15),
        **VAE_SIZES,
    )
    base.update(overrides)
    return base


def vae_config(**overrides) -> CircuitVAEConfig:
    """The benchmark-scale config, for benches driving the optimizer directly."""
    return build_config("CircuitVAE", vae_params(**overrides))


def method_specs() -> Tuple[MethodSpec, ...]:
    """The four methods of Figs. 3/7 and Table 1 (paired per seed)."""
    return (
        MethodSpec("CircuitVAE", params=vae_params()),
        MethodSpec("GA", params=dict(population_size=24)),
        MethodSpec("RL", params=dict(episode_length=16)),
        MethodSpec(
            "BO",
            params=dict(
                vae=vae_params(), batch_per_round=12, candidate_pool=256,
                gp_max_points=128,
            ),
        ),
    )


def once(benchmark, fn):
    """Run a whole experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

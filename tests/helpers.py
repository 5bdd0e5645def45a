"""Shared test utilities (imported as a plain module, no package needed).

pytest's rootdir-based collection puts this directory on ``sys.path``, so
test modules import from here with ``from helpers import ...`` — that is
what lets ``pytest -x -q`` collect every module without ``__init__.py``
files or relative imports.
"""

import numpy as np

#: A tiny CircuitVAE (``MethodSpec`` params) that trains in well under a
#: second per round on 8-bit tasks.
VAE_PARAMS = dict(
    latent_dim=6, base_channels=4, hidden_dim=32, initial_samples=20,
    first_round_epochs=8, train=dict(epochs=4, batch_size=16),
    search=dict(num_parallel=8, num_steps=20, capture_every=10),
)


def unique_random_graphs(n, count, seed=0, base_density=0.1):
    """``count`` random legal prefix graphs with pairwise-distinct keys."""
    from repro.prefix import unique_random_graphs as _unique

    return _unique(
        n,
        count,
        np.random.default_rng(seed),
        density_low=base_density,
        density_high=base_density + 0.5,
    )


def run_serial_grid(factory, task, budget, seeds, method_name):
    """The plain reference grid: one serial :class:`CircuitSimulator`
    (scalar ``task.synthesize`` per design) per seed."""
    from repro.opt import BudgetExhausted, CircuitSimulator, RunRecord

    records = []
    for seed in seeds:
        simulator = CircuitSimulator(task, budget=budget)
        try:
            factory(seed).run(simulator, np.random.default_rng(seed))
        except BudgetExhausted:
            pass
        records.append(RunRecord.from_simulator(method_name, seed, simulator))
    return records


def mutant_population(n, total, seed=42, flips=(1, 3)):
    """Classic parents + legalized bit-flip mutants: the GA/BO shape.

    Most graphs share almost every fanin cone with one of the parents,
    the structurally shared batches search methods actually submit.
    """
    from repro.prefix import brent_kung, kogge_stone, legalize, sklansky

    bases = [sklansky(n), brent_kung(n), kogge_stone(n)]
    rng = np.random.default_rng(seed)
    graphs = list(bases[: min(3, total)])
    seen = {g.key() for g in graphs}
    while len(graphs) < total:
        base = graphs[int(rng.integers(0, len(bases)))]
        grid = base.grid.copy()
        for _ in range(int(rng.integers(*flips))):
            i = int(rng.integers(2, n))
            j = int(rng.integers(1, i))
            grid[i, j] ^= True
        graph = legalize(grid)
        if graph.key() not in seen:
            seen.add(graph.key())
            graphs.append(graph)
    return graphs


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f() w.r.t. array x (in place)."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        grad[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def gradcheck(fn, *tensors, eps=1e-6, atol=1e-6, rtol=1e-4, compiled=False):
    """Finite-difference check of ``fn(*tensors) -> scalar Tensor``.

    Backpropagates analytically through every given tensor (all must
    have ``requires_grad=True``) and compares each gradient against a
    central-difference estimate.  With ``compiled=True`` the gradients
    come from the traced graph executor (:mod:`repro.nn.compile`)
    instead of the eager tape, so one call covers either engine.
    """
    from repro import nn

    assert all(t.requires_grad for t in tensors), "gradcheck needs grad-enabled tensors"
    if compiled:
        step = nn.compile_train_step(lambda: {"loss": fn(*tensors)}, list(tensors))
        step()
    else:
        for t in tensors:
            t.zero_grad()
        out = fn(*tensors)
        assert out.size == 1, "gradcheck needs a scalar output"
        out.backward()

    def value():
        return float(fn(*[type(t)(t.data) for t in tensors]).data)

    for t in tensors:
        num = numerical_grad(value, t.data, eps=eps)
        assert t.grad is not None, "no gradient reached a checked tensor"
        np.testing.assert_allclose(t.grad, num, atol=atol, rtol=rtol)
    return True

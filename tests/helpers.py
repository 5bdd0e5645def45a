"""Shared test utilities (imported as a plain module, no package needed).

pytest's rootdir-based collection puts this directory on ``sys.path``, so
test modules import from here with ``from helpers import ...`` — that is
what lets ``pytest -x -q`` collect every module without ``__init__.py``
files or relative imports.
"""

import contextlib

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


class ListSink(list):
    """In-memory trace sink: ``Tracer(sink=ListSink())`` appends every
    finished span dict to the list, in finish order."""

    def write(self, span_dict):
        self.append(span_dict)


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


def legalize_grid_per_pair(grid):
    """Reference legalization: the per-pair top-down sweep of one grid.

    The oracle :func:`repro.prefix.legalize_grids` must match — one
    Python-level insertion per (node, upper parent) pair, row by row.
    """
    grid = np.asarray(grid)
    n = grid.shape[0]
    if grid.ndim != 2 or grid.shape[1] != n:
        raise ValueError(f"grid must be square, got {grid.shape}")
    out = np.zeros((n, n), dtype=bool)
    tri = np.tril(np.ones((n, n), dtype=bool))
    out[tri] = grid.astype(bool)[tri]
    np.fill_diagonal(out, True)
    out[:, 0] = True
    for i in range(n - 1, 0, -1):
        present = np.nonzero(out[i][: i + 1])[0]
        for j, k in zip(present[:-1], present[1:]):
            out[k - 1, j] = True
    return out


def random_population_per_member(n, size, rng, density_range=(0.05, 0.5)):
    """Reference :func:`repro.opt.variation.random_population`: one
    density draw, bit draw and legalization per member."""
    from repro.prefix import bits_to_graph, num_free_cells

    lo, hi = density_range
    population = []
    for _ in range(size):
        density = rng.uniform(lo, hi)
        bits = rng.random(num_free_cells(n)) < density
        population.append(bits_to_graph(bits, n))
    return population


def per_child_ga(config=None):
    """A GA whose generations are varied child by child — tournament,
    :func:`~repro.opt.variation.crossover`, then
    :func:`~repro.opt.variation.mutate` per child — and whose random
    initial members are built one at a time: the reference the
    population-level GA must reproduce design for design."""
    from repro.baselines import GeneticAlgorithm
    from repro.opt.variation import crossover, mutate
    from repro.prefix import STRUCTURES

    class PerChildGA(GeneticAlgorithm):
        def run(self, simulator, rng):
            config = self.config
            n = simulator.task.n
            population = []
            if config.seed_with_classics:
                population.extend(builder(n) for builder in STRUCTURES.values())
            fill = config.population_size - len(population)
            if fill > 0:
                population.extend(random_population_per_member(n, fill, rng))
            evaluations = simulator.query_many(population[: config.population_size])
            if not evaluations:
                return simulator.best()
            population = [e.graph for e in evaluations]
            fitness = np.array([e.cost for e in evaluations])

            def tournament():
                contenders = rng.integers(
                    0, len(population), size=config.tournament_size
                )
                return population[int(min(contenders, key=lambda i: fitness[i]))]

            while not simulator.exhausted():
                elite_idx = np.argsort(fitness)[: config.elite_count]
                children = [population[int(i)] for i in elite_idx]
                while len(children) < config.population_size:
                    parent_a = tournament()
                    if rng.random() < config.crossover_prob:
                        child = crossover(parent_a, tournament(), rng)
                    else:
                        child = parent_a
                    children.append(mutate(child, rng, rate=config.mutation_rate))
                evaluations = simulator.query_many(children)
                if not evaluations:
                    break
                population = [e.graph for e in evaluations]
                fitness = np.array([e.cost for e in evaluations])
            return simulator.best()

    return PerChildGA(config)


def build_initial_dataset_serial(simulator, size, rng, dataset=None, k=1e-3):
    """Reference :func:`repro.core.build_initial_dataset`: every seed is
    its own ``simulator.query``, checked against ``size`` after each."""
    from repro.core import CircuitDataset
    from repro.opt import BudgetExhausted
    from repro.opt.variation import mutate
    from repro.prefix import STRUCTURES

    dataset = dataset or CircuitDataset(k=k)
    n = simulator.task.n
    seeds = [builder(n) for builder in STRUCTURES.values()]
    seeds += random_population_per_member(n, max(size // 4, 4), rng)
    try:
        for graph in seeds:
            dataset.add_evaluations([simulator.query(graph)])
            if len(dataset) >= size:
                break
        while len(dataset) < size:
            idx = rng.choice(len(dataset), p=dataset.weights())
            child = mutate(dataset.graphs[idx], rng, rate=0.03)
            dataset.add_evaluations([simulator.query(child)])
    except BudgetExhausted:
        pass
    return dataset


def latent_bo_reference(config=None):
    """Latent BO with its own copy of the Algorithm-1 loop — model,
    D_0, Adam, retraining rounds, GP/EI acquisition, decode, stall
    fallback — written out in full: the reference the shared loop of
    :mod:`repro.core.algorithm` must reproduce design for design."""
    from dataclasses import replace

    from repro import nn
    from repro.baselines import LatentBO
    from repro.baselines.gp import GaussianProcess, expected_improvement, median_lengthscale
    from repro.core import CircuitVAEModel, VAEConfig, build_initial_dataset
    from repro.core.search import decode_and_query
    from repro.core.training import report_training_round, train_model
    from repro.engine.telemetry import stage
    from repro.opt.variation import mutate

    class ReferenceLatentBO(LatentBO):
        def run(self, simulator, rng):
            config = self.config
            vae_cfg = config.vae
            model_config = VAEConfig(
                n=simulator.task.n,
                latent_dim=vae_cfg.latent_dim,
                base_channels=vae_cfg.base_channels,
                hidden_dim=vae_cfg.hidden_dim,
            )
            self.model = CircuitVAEModel(model_config, rng)
            self.dataset = build_initial_dataset(
                simulator, vae_cfg.initial_samples, rng, k=vae_cfg.k
            )
            optimizer = nn.Adam(self.model.parameters(), lr=vae_cfg.train.lr)

            telemetry = simulator.telemetry
            checkpoint_dir = getattr(simulator, "train_checkpoint_dir", None)
            first_round = True
            round_index = 0
            while not simulator.exhausted():
                epochs = vae_cfg.first_round_epochs if first_round else vae_cfg.train.epochs
                with stage(telemetry, "train"):
                    stats = train_model(
                        self.model,
                        self.dataset,
                        rng,
                        config=replace(vae_cfg.train, epochs=epochs),
                        optimizer=optimizer,
                        checkpoint_dir=checkpoint_dir,
                        checkpoint_tag=f"round{round_index:03d}",
                    )
                report_training_round(simulator, stats, round_index)
                first_round = False
                round_index += 1

                with stage(telemetry, "acquisition"):
                    latents = self._latents_of_dataset()
                    costs = self.dataset.costs
                    if len(costs) > config.gp_max_points:
                        keep = np.argsort(costs)[: config.gp_max_points]
                        latents, costs = latents[keep], costs[keep]
                    gp = GaussianProcess(
                        lengthscale=median_lengthscale(latents, rng),
                        variance=1.0,
                        noise=config.gp_noise,
                    ).fit(latents, costs)
                    candidates = self._candidate_pool(rng)
                    mean, std = gp.predict(candidates)
                    ei = expected_improvement(mean, std, best=float(costs.min()))
                    top = np.argsort(-ei)[: config.batch_per_round]
                _designs, evaluations = decode_and_query(
                    self.model, candidates[top], simulator, rng, telemetry
                )
                new_points = self.dataset.add_evaluations(evaluations)
                if new_points == 0 and not simulator.exhausted():
                    parents = [
                        self.dataset.graphs[i]
                        for i in self.dataset.sample_indices(config.batch_per_round, rng)
                    ]
                    explore = [mutate(g, rng, rate=0.05) for g in parents]
                    self.dataset.add_evaluations(simulator.query_many(explore))
            return simulator.best()

    return ReferenceLatentBO(config)


def eager_train_step(model, optimizer, config, arrays):
    """One training step on the eager tape: the compiled step's reference.

    Runs the same :data:`~repro.core.training.TRAIN_SHARDS` shards back
    to back and combines them through the same
    :class:`repro.nn.ShardMean`, so it computes the compiled step's math
    (up to the conv kernels' summation order).
    """
    from repro import nn
    from repro.core.training import TRAIN_SHARDS

    params = model.parameters()
    parts = nn.shard_slices(len(arrays[0]), TRAIN_SHARDS)
    combined = nn.ShardMean()
    for rows in parts:
        outs = model.training_losses(
            *(nn.Tensor(a[rows]) for a in arrays), beta=config.beta, lam=config.lam
        )
        optimizer.zero_grad()
        outs["loss"].backward()
        names = list(outs)
        values = [outs[name].item() for name in names]
        if len(parts) > 1:
            combined.add(values + [p.grad for p in params], rows.stop - rows.start)
    if len(parts) > 1:
        means = combined.mean()
        values = [float(mean) for mean in means[: len(names)]]
        for p, grad in zip(params, means[len(names):]):
            p.grad = grad
    nn.clip_grad_norm(params, config.grad_clip)
    optimizer.step()
    return dict(zip(names, values))


class EagerTrainStep:
    """Stands in for the compiled step ``train_model`` builds: the same
    call signature and counters, but every step on the eager tape."""

    def __init__(self, model, optimizer, config):
        from repro import nn

        self.model, self.optimizer, self.config = model, optimizer, config
        self.stats = nn.CompileStats()
        self.compile_seconds = 0.0

    def kernel_seconds(self):
        return {}

    def release(self):
        pass

    def __call__(self, *arrays):
        return eager_train_step(self.model, self.optimizer, self.config, arrays)


@contextlib.contextmanager
def eager_training():
    """Run every ``train_model`` call inside on the eager reference tape.

    Patches ``repro.core.training._compiled_step_for`` (the one place
    ``train_model`` gets its step) for the duration; the compiled step
    stays the only engine the library itself runs.
    """
    from repro.core import training

    compiled_step_for = training._compiled_step_for
    training._compiled_step_for = EagerTrainStep
    try:
        yield
    finally:
        training._compiled_step_for = compiled_step_for


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

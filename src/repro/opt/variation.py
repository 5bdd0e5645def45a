"""Variation operators on circuit encodings.

Shared by the genetic-algorithm baseline, the initial-dataset builder
(the paper seeds CircuitVAE with "the first few generations of GA"), and
the random-search baseline.  All operators work on the free-cell
bitvector encoding and legalize their results, so they always produce
valid circuits.

:func:`mutate` and :func:`crossover` vary one design.  :func:`breed` and
:func:`random_population` vary a whole population: they draw from the
rng child by child, in exactly the order the per-design operators would,
then legalize every child in one batched sweep
(:func:`repro.prefix.legalize.legalize_grids`) — so their designs are
identical to the per-design loop's.  No draw depends on a legalized
result, because the chromosome length ``num_free_cells(n)`` is fixed.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ..prefix.encoding import (
    bits_to_graph,
    bits_to_graphs,
    graph_to_bits,
    legalize_bits,
    num_free_cells,
)
from ..prefix.graph import PrefixGraph

__all__ = ["mutate", "crossover", "breed", "random_population"]


def _mutation_flips(size: int, rng: np.random.Generator, rate: float) -> np.ndarray:
    """Per-bit flips with probability ``rate``, at least one forced."""
    flips = rng.random(size) < rate
    if not flips.any():
        flips[rng.integers(size)] = True
    return flips


def _crossover_mask(size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-crossover mask: True takes the first parent's bit."""
    return rng.random(size) < 0.5


def mutate(graph: PrefixGraph, rng: np.random.Generator, rate: float = 0.02) -> PrefixGraph:
    """Flip each free cell independently with probability ``rate``.

    At least one flip is forced so mutation never degenerates to identity
    (the legalized *result* may still coincide with the input when the
    flipped cell was structurally implied).
    """
    bits = graph_to_bits(graph)
    return bits_to_graph(bits ^ _mutation_flips(bits.shape[0], rng, rate), graph.n)


def crossover(
    parent_a: PrefixGraph, parent_b: PrefixGraph, rng: np.random.Generator
) -> PrefixGraph:
    """Uniform crossover of two same-width circuits' bitvectors."""
    if parent_a.n != parent_b.n:
        raise ValueError("parents must share a bitwidth")
    bits_a = graph_to_bits(parent_a)
    bits_b = graph_to_bits(parent_b)
    mask = _crossover_mask(bits_a.shape[0], rng)
    return bits_to_graph(np.where(mask, bits_a, bits_b), parent_a.n)


def breed(
    parents: Sequence[PrefixGraph],
    count: int,
    select: Callable[[], int],
    rng: np.random.Generator,
    crossover_prob: float,
    mutation_rate: float,
) -> List[PrefixGraph]:
    """``count`` children of ``parents``, varied as one population.

    Child by child, ``select()`` picks parent a (an index into
    ``parents``); with probability ``crossover_prob`` a second
    ``select()`` picks parent b and the child is ``crossover(a, b)``,
    else it is a; the child is then mutated at ``mutation_rate``.  The
    result equals that per-design loop of :func:`crossover` and
    :func:`mutate` for the same rng state, but all crossover children are
    legalized in one sweep and all mutants in a second.
    """
    n = parents[0].n
    size = num_free_cells(n)
    parent_bits = np.stack([graph_to_bits(graph) for graph in parents])
    first = np.empty(count, dtype=np.intp)
    second = np.full(count, -1, dtype=np.intp)
    masks = np.zeros((count, size), dtype=bool)
    flips = np.empty((count, size), dtype=bool)
    for child in range(count):
        first[child] = select()
        if rng.random() < crossover_prob:
            second[child] = select()
            masks[child] = _crossover_mask(size, rng)
        flips[child] = _mutation_flips(size, rng, mutation_rate)
    bits = parent_bits[first]
    crossed = second >= 0
    if crossed.any():
        mixed = np.where(masks[crossed], bits[crossed], parent_bits[second[crossed]])
        bits[crossed] = legalize_bits(mixed, n)
    return bits_to_graphs(bits ^ flips, n)


def random_population(
    n: int, size: int, rng: np.random.Generator, density_range=(0.05, 0.5)
) -> List[PrefixGraph]:
    """Random legal circuits with varied densities (exploration seeds)."""
    lo, hi = density_range
    bits = np.empty((max(size, 0), num_free_cells(n)), dtype=bool)
    for member in range(bits.shape[0]):
        density = rng.uniform(lo, hi)
        bits[member] = rng.random(bits.shape[1]) < density
    return bits_to_graphs(bits, n)

"""PrefixRL-style reinforcement learning baseline (paper Sec. 5.2).

The paper's primary baseline is PrefixRL (Roy et al., DAC 2021): deep
Q-learning where the state is the prefix-graph grid, actions add or
remove one node, the modified graph is legalized, and the reward is the
cost improvement measured by physical synthesis.  This module implements
that scheme on the numpy NN substrate:

* **Environment** (:class:`PrefixEnv`): episodic MDP over legal graphs.
  An action toggles one free cell; legalization repairs the result.  The
  reward is ``cost(s) - cost(s')`` (improvement), each step costing one
  simulation.
* **Agent** (:class:`PrefixRL`): DQN with a small CNN over the grid and a
  dueling-free 2 x F head (set/clear per free cell), epsilon-greedy
  exploration, uniform replay, and a periodically-synced target network.

RL searches directly in input space — the difficulty the paper
contrasts with CircuitVAE's learned search space, and the reason this
baseline needs roughly 2-3x more simulations for equal quality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np

from .. import nn
from ..engine.telemetry import stage
from ..nn import functional as F
from ..opt.optimizer import SearchAlgorithm
from ..opt.simulator import BudgetExhausted, CircuitSimulator, Evaluation
from ..prefix.encoding import free_cells
from ..prefix.graph import PrefixGraph
from ..prefix.legalize import legalize
from ..prefix.structures import STRUCTURES

__all__ = ["RLConfig", "PrefixEnv", "QNetwork", "PrefixRL"]


@dataclass(frozen=True)
class RLConfig:
    """DQN hyperparameters."""

    episode_length: int = 24
    epsilon_start: float = 0.8
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 400
    replay_capacity: int = 2048
    batch_size: int = 32
    discount: float = 0.9
    lr: float = 1e-3
    target_sync_every: int = 50
    train_every: int = 1
    base_channels: int = 8
    hidden_dim: int = 128


class PrefixEnv:
    """Add/remove-node MDP over legal prefix graphs."""

    def __init__(self, simulator: CircuitSimulator, rng: np.random.Generator):
        self.simulator = simulator
        self.rng = rng
        self.n = simulator.task.n
        self.cells = free_cells(self.n)
        self.num_actions = 2 * len(self.cells)
        self.state: Optional[PrefixGraph] = None
        self.state_cost: float = float("inf")

    def reset(self) -> PrefixGraph:
        """Start an episode from a random classical structure."""
        builders = list(STRUCTURES.values())
        builder = builders[int(self.rng.integers(len(builders)))]
        self.state = builder(self.n)
        self.state_cost = self.simulator.query(self.state).cost
        return self.state

    def step(self, action: int) -> Tuple[PrefixGraph, float]:
        """Apply one toggle; returns (next_state, reward)."""
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        cell_index, set_bit = divmod(action, 2)
        i, j = self.cells[cell_index]
        raw = self.state.with_node(i, j, bool(set_bit))
        next_state = legalize(raw)
        next_cost = self.simulator.query(next_state).cost
        reward = self.state_cost - next_cost
        self.state = next_state
        self.state_cost = next_cost
        return next_state, reward


class QNetwork(nn.Module):
    """CNN trunk + dense head scoring every (cell, set/clear) action."""

    def __init__(self, n: int, num_actions: int, config: RLConfig, rng: np.random.Generator):
        super().__init__()
        c = config.base_channels
        self.n = n
        self.conv1 = nn.Conv2d(1, c, 3, rng, stride=1, padding=1)
        self.conv2 = nn.Conv2d(c, 2 * c, 3, rng, stride=2, padding=1)
        flat = 2 * c * ((n + 1) // 2) ** 2
        self.fc1 = nn.Linear(flat, config.hidden_dim, rng)
        self.fc2 = nn.Linear(config.hidden_dim, num_actions, rng)

    def forward(self, grids: np.ndarray) -> nn.Tensor:
        x = nn.Tensor(np.asarray(grids, dtype=np.float64)[:, None, :, :])
        h = self.conv1(x).relu()
        h = self.conv2(h).relu()
        h = h.reshape(h.shape[0], -1)
        h = self.fc1(h).relu()
        return self.fc2(h)


class PrefixRL(SearchAlgorithm):
    """DQN over the prefix-graph action space."""

    method_name = "RL"

    def __init__(self, config: Optional[RLConfig] = None):
        self.config = config or RLConfig()
        self.q_net: Optional[QNetwork] = None
        self.target_net: Optional[QNetwork] = None
        self.steps: int = 0

    # ------------------------------------------------------------------
    def _epsilon(self) -> float:
        config = self.config
        frac = min(self.steps / max(config.epsilon_decay_steps, 1), 1.0)
        return config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)

    def _select_action(
        self, grid: np.ndarray, num_actions: int, rng: np.random.Generator
    ) -> int:
        if rng.random() < self._epsilon():
            return int(rng.integers(num_actions))
        with nn.no_grad():
            q_values = self.q_net(grid[None]).data[0]
        return int(np.argmax(q_values))

    def _train_step(
        self,
        replay: Deque[Tuple[np.ndarray, int, float, np.ndarray]],
        optimizer: nn.Adam,
        rng: np.random.Generator,
    ) -> float:
        config = self.config
        if len(replay) < config.batch_size:
            return 0.0
        idx = rng.integers(0, len(replay), size=config.batch_size)
        batch = [replay[int(i)] for i in idx]
        states = np.stack([b[0] for b in batch])
        actions = np.array([b[1] for b in batch])
        rewards = np.array([b[2] for b in batch])
        next_states = np.stack([b[3] for b in batch])

        with nn.no_grad():
            next_q = self.target_net(next_states).data.max(axis=1)
        targets = rewards + config.discount * next_q

        q_all = self.q_net(states)
        q_taken = q_all[np.arange(len(batch)), actions]
        loss = F.mse_loss(q_taken, nn.Tensor(targets))
        optimizer.zero_grad()
        loss.backward()
        nn.clip_grad_norm(self.q_net.parameters(), 5.0)
        optimizer.step()
        return loss.item()

    # ------------------------------------------------------------------
    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        config = self.config
        telemetry = simulator.telemetry
        env = PrefixEnv(simulator, rng)
        self.q_net = QNetwork(env.n, env.num_actions, config, rng)
        self.target_net = QNetwork(env.n, env.num_actions, config, rng)
        self.target_net.load_state_dict(self.q_net.state_dict())
        optimizer = nn.Adam(self.q_net.parameters(), lr=config.lr)
        replay: Deque = deque(maxlen=config.replay_capacity)

        try:
            while not simulator.exhausted():
                state = env.reset()
                for _ in range(config.episode_length):
                    grid = state.grid.astype(np.float64)
                    action = self._select_action(grid, env.num_actions, rng)
                    next_state, reward = env.step(action)
                    replay.append(
                        (grid, action, reward, next_state.grid.astype(np.float64))
                    )
                    state = next_state
                    self.steps += 1
                    if self.steps % config.train_every == 0:
                        with stage(telemetry, "train"):
                            self._train_step(replay, optimizer, rng)
                    if self.steps % config.target_sync_every == 0:
                        self.target_net.load_state_dict(self.q_net.state_dict())
                    if simulator.exhausted():
                        break
        except BudgetExhausted:
            pass
        return simulator.best()

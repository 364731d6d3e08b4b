"""Baseline algorithms the paper compares against.

Currently this is the conventional three-layer DQN (Section 2.4): deep
Q-learning with experience replay, a fixed target network, the Huber loss and
the Adam optimizer — written as plain NumPy forward, backward and Adam
functions in :mod:`repro.baselines.dqn`.
"""

from repro.baselines.replay_buffer import ReplayBuffer
from repro.baselines.dqn import DQNAgent, DQNConfig

__all__ = ["ReplayBuffer", "DQNAgent", "DQNConfig"]

"""The simplified output model: ``Q(state, action)`` as a scalar regression.

DQN maps the state to one Q-value per action (Figure 2, left).  Because ELM /
OS-ELM are single-hidden-layer networks aimed at tiny FPGAs, the paper instead
feeds the action *into* the network and reads a single scalar out (Figure 2,
right): the input vector is the concatenation of the state and the action
index, so its size is ``n_states + 1`` (five for CartPole — four state
variables plus one action value), and the output size is 1.

:class:`QFunction` wraps an ELM-family regressor —
:class:`~repro.core.elm.ELM`, :class:`~repro.core.os_elm.OSELM` or the
fixed-point :class:`~repro.fpga.accelerator.FPGAAcceleratedOSELM` — and
provides the action-space sweeps (``q_values``, ``greedy_action``,
``max_q``) needed by Q-learning.  Its methods check the caller's states (and
targets) once, encode them into network input rows and hand those rows
straight to the model's row hooks, which trust them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.elm import ELM
from repro.utils.exceptions import NotFittedError, ShapeError
from repro.utils.validation import check_finite


def encode_state_action(state: np.ndarray, action: int,
                        n_actions: Optional[int] = None, *,
                        one_hot: bool = False) -> np.ndarray:
    """Concatenate a state vector and an action into one network input row.

    By default the action is appended as a single scalar (the paper's
    five-input CartPole encoding).  ``one_hot=True`` appends a one-hot action
    block instead (requires ``n_actions``), which is useful for environments
    with more than two actions where the scalar encoding imposes an
    artificial ordering.
    """
    state = np.asarray(state, dtype=float).reshape(-1)
    if one_hot:
        if n_actions is None:
            raise ValueError("one_hot encoding requires n_actions")
        action_block = np.zeros(int(n_actions))
        action_block[int(action)] = 1.0
    else:
        action_block = np.array([float(action)])
    return np.concatenate([state, action_block])


def state_action_input_size(n_states: int, n_actions: int, *, one_hot: bool = False) -> int:
    """Input dimensionality of the simplified output model."""
    if n_states <= 0 or n_actions <= 0:
        raise ValueError("n_states and n_actions must be positive")
    return int(n_states) + (int(n_actions) if one_hot else 1)


class QFunction:
    """A scalar Q-function backed by an ELM-family regressor.

    Parameters
    ----------
    model:
        A fitted (or fittable) ELM-family regressor (:class:`ELM` or a
        subclass) over inputs of size
        ``state_action_input_size(n_states, n_actions, one_hot)``.
    n_states, n_actions:
        Environment dimensions.
    one_hot_actions:
        Whether actions are one-hot encoded in the network input.
    default_value:
        Q-value returned before the model has been trained (Algorithm 1 needs
        greedy actions even before the initial training completes; the paper
        simply acts on the untrained network, which we represent with a
        constant until beta exists).
    """

    def __init__(self, model: ELM, n_states: int, n_actions: int, *,
                 one_hot_actions: bool = False, default_value: float = 0.0) -> None:
        if n_states <= 0 or n_actions <= 0:
            raise ValueError("n_states and n_actions must be positive")
        expected = state_action_input_size(n_states, n_actions, one_hot=one_hot_actions)
        if model.n_inputs != expected:
            raise ValueError(
                f"model expects {model.n_inputs} inputs but the simplified output model "
                f"requires {expected} (n_states={n_states}, n_actions={n_actions}, "
                f"one_hot={one_hot_actions})"
            )
        if model.n_outputs != 1:
            raise ValueError("the simplified output model has a scalar output; n_outputs must be 1")
        self.model = model
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.one_hot_actions = bool(one_hot_actions)
        self.default_value = float(default_value)

    # ------------------------------------------------------------------ encoding
    @property
    def input_size(self) -> int:
        return state_action_input_size(self.n_states, self.n_actions,
                                       one_hot=self.one_hot_actions)

    def encode(self, state: np.ndarray, action: int) -> np.ndarray:
        """Encode one (state, action) pair as a network input row."""
        return encode_state_action(state, action, self.n_actions,
                                   one_hot=self.one_hot_actions)

    def encode_batch(self, states: np.ndarray, actions: Sequence[int]) -> np.ndarray:
        """Encode matching arrays of states and actions into an input matrix."""
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states.reshape(1, -1)
        actions = np.asarray(actions).reshape(-1)
        if states.shape[0] != actions.shape[0]:
            raise ValueError("states and actions must have the same length")
        batch = states.shape[0]
        inputs = np.empty((batch, self.input_size))
        inputs[:, :self.n_states] = states
        if self.one_hot_actions:
            actions = actions.astype(int)
            if ((actions < 0) | (actions >= self.n_actions)).any():
                raise ValueError(
                    f"one-hot encoding requires actions in [0, {self.n_actions}), "
                    f"got {actions!r}"
                )
            inputs[:, self.n_states:] = 0.0
            inputs[np.arange(batch), self.n_states + actions] = 1.0
        else:
            inputs[:, self.n_states] = actions.astype(float)
        return inputs

    def encode_all_actions(self, states: np.ndarray) -> np.ndarray:
        """Encode every (state, action) pair for a batch of states.

        Returns a ``(B, n_actions, input_size)`` tensor: one network input row
        per state per action, the layout used by the batched action sweeps.
        """
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states.reshape(1, -1)
        batch = states.shape[0]
        inputs = np.empty((batch, self.n_actions, self.input_size))
        inputs[:, :, :self.n_states] = states[:, None, :]
        if self.one_hot_actions:
            inputs[:, :, self.n_states:] = np.eye(self.n_actions)
        else:
            inputs[:, :, self.n_states] = np.arange(self.n_actions, dtype=float)
        return inputs

    def check_states(self, states: np.ndarray) -> np.ndarray:
        """A caller's state ``(n_states,)`` or batch ``(B, n_states)`` as a float
        array, rejected with ``ShapeError`` for the wrong width and
        ``ValueError`` for NaN/Inf: the one check each call makes."""
        states = np.asarray(states, dtype=float)
        if states.ndim not in (1, 2) or states.shape[-1] != self.n_states:
            raise ShapeError(
                f"states must have {self.n_states} features, got shape {states.shape}"
            )
        return check_finite(states, name="state")

    # ------------------------------------------------------------------ evaluation
    @property
    def is_trained(self) -> bool:
        return self.model.is_fitted

    def value(self, state: np.ndarray, action: int) -> float:
        """Q(state, action) as a scalar."""
        return float(self.predict(np.asarray(state, dtype=float).reshape(-1), action))

    def predict(self, states: np.ndarray, actions) -> Union[float, np.ndarray]:
        """Q(state, action) for one pair or a batch of pairs.

        A 1-D ``states`` vector with a scalar action returns a float; a 2-D
        ``(B, n_states)`` batch with ``B`` actions returns a ``(B,)`` array.
        The two forms round-trip: ``predict(s, a) == predict(s[None], [a])[0]``.
        """
        states = self.check_states(states)
        single = states.ndim == 1
        actions = np.atleast_1d(actions)
        batch = 1 if single else states.shape[0]
        if actions.shape[0] != batch:
            raise ValueError("states and actions must have the same length")
        if not self.is_trained:
            out = np.full(batch, self.default_value)
            return float(out[0]) if single else out
        out = self.model._predict_rows(self.encode_batch(states, actions)).reshape(-1)
        return float(out[0]) if single else out

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q(state, a) for every action ``a``.

        Accepts one state ``(n_states,)`` -> ``(n_actions,)`` or a batch
        ``(B, n_states)`` -> ``(B, n_actions)``.  The batched form evaluates
        each state's ``(n_actions, input_size)`` block as the one-state form
        does, so row ``i`` is bit for bit ``q_values(state[i])`` and a
        batched greedy action never differs from a single-state one.
        """
        state = self.check_states(state)
        single = state.ndim == 1
        batch = 1 if single else state.shape[0]
        if not self.is_trained:
            out = np.full((batch, self.n_actions), self.default_value)
            return out[0] if single else out
        blocks = self.encode_all_actions(state)
        if single:
            return self.model._predict_rows(blocks[0]).reshape(self.n_actions)
        return self.model._predict_blocks(blocks).reshape(batch, self.n_actions)

    def greedy_action(self, state: np.ndarray):
        """``argmax_a Q(state, a)`` (Algorithm 1, line 11).

        Returns an int for one state, an ``(B,)`` int array for a batch.
        """
        q = self.q_values(state)
        return int(np.argmax(q)) if q.ndim == 1 else np.argmax(q, axis=1)

    def max_q(self, state: np.ndarray):
        """``max_a Q(state, a)`` — the bootstrap term of the Q-learning target.

        Returns a float for one state, an ``(B,)`` array for a batch.
        """
        q = self.q_values(state)
        return float(np.max(q)) if q.ndim == 1 else np.max(q, axis=1)

    # ------------------------------------------------------------------ training passthroughs
    def fit_batch(self, states: np.ndarray, actions: Sequence[int],
                  targets: np.ndarray) -> None:
        """Batch (initial) training of the underlying model on encoded inputs."""
        inputs = self.encode_batch(states, actions)
        targets = np.asarray(targets, dtype=float).reshape(-1, 1)
        self.model.fit(inputs, targets)

    def update(self, state: np.ndarray, action: int, target: float) -> None:
        """Sequential (batch-size-1) training step on an initialized OS-ELM model."""
        if not getattr(self.model, "is_initialized", False):
            raise NotFittedError(
                f"{type(self.model).__name__} does not support sequential updates "
                f"or has not had its initial training"
            )
        t_row = check_finite(np.asarray(target, dtype=float).reshape(1, 1), name="target")
        self.model._update_rows(self.encode_batch(self.check_states(state), [action]), t_row)

    def __repr__(self) -> str:
        return (f"QFunction(n_states={self.n_states}, n_actions={self.n_actions}, "
                f"one_hot={self.one_hot_actions}, model={self.model!r})")

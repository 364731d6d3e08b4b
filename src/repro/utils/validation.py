"""Argument-validation helpers shared by the public API surface.

The rule: public entry points validate, internal row hooks trust.

* A public entry point checks its arguments (shape, dtype, NaN/Inf) exactly
  once: ``ELM.fit`` / ``predict`` / ``hidden`` and ``OSELM.init_train`` /
  ``partial_fit`` / ``seq_train_step`` through :func:`ensure_2d`; the
  public ``repro.linalg`` updates likewise; ``QFunction`` and the agents
  through ``QFunction.check_states`` and :func:`check_finite` on the
  caller's state and target.
* It then hands the model's row hooks (``_hidden_rows``, ``_predict_rows``,
  ``_init_rows``, ``_update_rows``) finite, pre-shaped ``(B, n_inputs)``
  float rows.  The hooks and the linear algebra under them trust those rows
  and re-check nothing.
* ``RecursiveInverse.update`` checks shapes only, and rejects a non-finite
  result.  So a corrupted ``P`` or ``beta`` still raises ``ValueError`` no
  later than the next sequential update.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.exceptions import ShapeError


def check_array(value: object, *, name: str = "array", dtype: Union[type, np.dtype] = np.float64,
                allow_nan: bool = False) -> np.ndarray:
    """Coerce ``value`` to an ndarray of ``dtype`` and reject NaN/Inf unless allowed."""
    arr = np.asarray(value, dtype=dtype)
    if not allow_nan and arr.dtype.kind == "f":
        check_finite(arr, name=name)
    return arr


def check_finite(arr: np.ndarray, *, name: str = "array") -> np.ndarray:
    """Reject NaN/Inf in a float ndarray the caller already holds (no coercion)."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf values")
    return arr


def ensure_2d(value: object, *, name: str = "array", n_features: Optional[int] = None,
              dtype: Union[type, np.dtype] = np.float64) -> np.ndarray:
    """Coerce ``value`` to a 2-D float array of shape ``(batch, n_features)``.

    1-D inputs are promoted to a single-row batch (the paper fixes the OS-ELM
    batch size at 1, so single samples are the common case).
    """
    arr = check_array(value, name=name, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    if n_features is not None and arr.shape[1] != n_features:
        raise ShapeError(
            f"{name} must have {n_features} features, got {arr.shape[1]} (shape {arr.shape})"
        )
    return arr


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative when ``strict=False``)."""
    value = float(value)
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate that a scalar lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(value: float, low: float, high: float, *, name: str = "value",
                   inclusive: Tuple[bool, bool] = (True, True)) -> float:
    """Validate that a scalar lies in the interval [low, high] (or open variants)."""
    value = float(value)
    low_ok = value >= low if inclusive[0] else value > low
    high_ok = value <= high if inclusive[1] else value < high
    if not (low_ok and high_ok):
        brackets = ("[" if inclusive[0] else "(", "]" if inclusive[1] else ")")
        raise ValueError(f"{name} must be in {brackets[0]}{low}, {high}{brackets[1]}, got {value}")
    return value


def check_choice(value: str, choices: Sequence[str], *, name: str = "value") -> str:
    """Validate that ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value

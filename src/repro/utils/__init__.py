"""Shared utilities: seeding, logging, metrics, serialization, validation.

These helpers are deliberately dependency-free (NumPy only) so that every
other subpackage — the OS-ELM core, the environments, the FPGA models — can
use them without import cycles.
"""

from repro.utils.exceptions import (
    ConfigurationError,
    NotFittedError,
    ReproError,
    ShapeError,
)
from repro.utils.logging import (
    Logger,
    get_logger,
    set_global_format,
    set_global_level,
)
from repro.utils.metrics import (
    MovingAverage,
    RunningStats,
    SolvedCriterion,
)
from repro.utils.seeding import SeedSequenceFactory, derive_rng, np_random
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive,
    check_probability,
    ensure_2d,
)

__all__ = [
    "ConfigurationError",
    "NotFittedError",
    "ReproError",
    "ShapeError",
    "Logger",
    "get_logger",
    "set_global_format",
    "set_global_level",
    "MovingAverage",
    "RunningStats",
    "SolvedCriterion",
    "SeedSequenceFactory",
    "derive_rng",
    "np_random",
    "load_arrays",
    "load_json",
    "save_arrays",
    "save_json",
    "check_array",
    "check_in_range",
    "check_positive",
    "check_probability",
    "ensure_2d",
]

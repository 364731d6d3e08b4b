"""On-disk artifact store: content-addressed trial results with cheap resume.

Layout (all under one root, default ``./artifacts`` or ``$REPRO_ARTIFACTS``)::

    <root>/trials/<trial_key>/trial.json   scalar result fields + operation counts
                                           + the full trial descriptor + backend_used
    <root>/trials/<trial_key>/curve.npz    per-episode arrays of the training curve
    <root>/trials/<trial_key>/policy.pkl   the trained agent (``--save-policy``
                                           runs only — the ``repro serve`` input)
    <root>/runs/<spec_hash>.json           the spec + its trial keys, written after
                                           every engine run (the ``repro report`` input)

``trial_key`` is :func:`~repro.utils.seeding.stable_digest` of the trial's
canonical descriptor — design, env, layer sizes, gamma, seed and every
training-protocol field.  Two runs that expand to the same trial therefore
share one artifact regardless of which spec, backend or CLI invocation
produced it: re-running ``repro run figure4`` completes from cache, and a
user spec that overlaps ``figure4``'s grid reuses its trials for free.
The backend is deliberately *not* part of the key — backend equivalence is
a library guarantee (asserted in CI), so results are interchangeable.
"""

from __future__ import annotations

import json
import os
import pickle
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.parallel.sweep import SweepTask
from repro.training.records import EpisodeRecord, TrainingCurve, TrainingResult
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.utils.seeding import stable_digest

PathLike = Union[str, os.PathLike]

#: Bumped when the on-disk trial format changes; part of every trial key, so
#: a format change naturally invalidates stale caches instead of misreading them.
STORE_FORMAT_VERSION = 1

#: Environment variable overriding the default store root.
STORE_ENV_VAR = "REPRO_ARTIFACTS"

_CURVE_FIELDS = ("episode", "steps", "shaped_return", "moving_average",
                 "lipschitz_bound", "beta_norm")


def default_store_root() -> Path:
    """``$REPRO_ARTIFACTS`` when set, else ``./artifacts``."""
    return Path(os.environ.get(STORE_ENV_VAR, "artifacts"))


def trial_descriptor(task: SweepTask) -> Dict[str, Any]:
    """The canonical, JSON-serializable identity of one trial.

    The package version is part of the identity: training-loop or design
    changes ship with a version bump, which invalidates stale artifacts
    instead of silently serving pre-change results as cache hits.
    """
    import repro

    training = asdict(task.training)
    if not training.get("env_params"):
        # Keys of trials that never customize the env constructor are the
        # same as before env_params existed, so historical caches stay valid.
        training.pop("env_params", None)
    return {
        "format_version": STORE_FORMAT_VERSION,
        "repro_version": repro.__version__,
        "design": task.design,
        "env_id": task.env_id,
        "n_hidden": task.n_hidden,
        "n_states": task.n_states,
        "n_actions": task.n_actions,
        "gamma": task.gamma,
        "seed": task.seed,
        "training": training,
    }


def trial_key(task: SweepTask) -> str:
    """Content-address of one trial (stable across processes and runs)."""
    descriptor = json.dumps(trial_descriptor(task), sort_keys=True,
                            separators=(",", ":"))
    return stable_digest(descriptor)


class ArtifactStore:
    """Per-trial result cache + run-level records under one directory root."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    # ------------------------------------------------------------------ paths
    def trial_dir(self, key: str) -> Path:
        return self.root / "trials" / key

    def run_path(self, spec_hash: str) -> Path:
        return self.root / "runs" / f"{spec_hash}.json"

    # ------------------------------------------------------------------ trials
    def has_trial(self, task: SweepTask) -> bool:
        directory = self.trial_dir(trial_key(task))
        return (directory / "trial.json").exists() and (directory / "curve.npz").exists()

    def save_trial(self, task: SweepTask, result: TrainingResult, *,
                   backend_used: str) -> str:
        """Persist one finished trial; returns its key.

        Writes are atomic (temp file + rename, curve before descriptor), so
        a process killed mid-save — a downed distributed worker, a Ctrl-C'd
        sweep — can leave at most a stray temp file, never a half-written
        artifact that :meth:`load_trial` could misread.  Concurrent savers
        of the same trial (broker thread + store-equipped worker) are safe:
        both write identical content and the renames serialize.
        """
        key = trial_key(task)
        directory = self.trial_dir(key)
        # A finished trial supersedes any mid-trial state snapshot.
        self.clear_trial_state(task)
        record = {
            "descriptor": trial_descriptor(task),
            "backend_used": backend_used,
            "result": {
                "design": result.design,
                "n_hidden": result.n_hidden,
                "solved": result.solved,
                "episodes": result.episodes,
                "episodes_to_solve": result.episodes_to_solve,
                "wall_time_seconds": result.wall_time_seconds,
                "weight_resets": result.weight_resets,
                "seed": result.seed,
                "breakdown_counts": dict(result.operation_counts),
            },
        }
        curve = result.curve
        nan_or = lambda value: np.nan if value is None else float(value)  # noqa: E731
        tmp_tag = f".{os.getpid()}.tmp"
        tmp_curve = save_arrays(directory / f"curve{tmp_tag}.npz", {
            "episode": np.array([r.episode for r in curve.records], dtype=np.int64),
            "steps": np.array([r.steps for r in curve.records], dtype=np.int64),
            "shaped_return": np.array([r.shaped_return for r in curve.records]),
            "moving_average": np.array([r.moving_average for r in curve.records]),
            "lipschitz_bound": np.array([nan_or(r.lipschitz_bound)
                                         for r in curve.records]),
            "beta_norm": np.array([nan_or(r.beta_norm) for r in curve.records]),
        })
        tmp_record = save_json(directory / f"trial{tmp_tag}.json", record)
        # Curve first: load_trial reads trial.json as the commit marker, so
        # the descriptor must never be visible before its arrays are.
        os.replace(tmp_curve, directory / "curve.npz")
        os.replace(tmp_record, directory / "trial.json")
        return key

    def load_trial(self, task: SweepTask) -> Optional[Tuple[TrainingResult, str]]:
        """Load a cached ``(result, backend_used)`` pair, or ``None`` on a miss.

        A corrupt or partially written artifact reads as a miss (the trial
        simply reruns) rather than poisoning the whole run.
        """
        key = trial_key(task)
        directory = self.trial_dir(key)
        try:
            record = load_json(directory / "trial.json")
            arrays = load_arrays(directory / "curve.npz")
            payload = record["result"]
            curve = _rebuild_curve(arrays)
            result = TrainingResult(
                design=payload["design"],
                n_hidden=int(payload["n_hidden"]),
                solved=bool(payload["solved"]),
                episodes=int(payload["episodes"]),
                episodes_to_solve=(None if payload["episodes_to_solve"] is None
                                   else int(payload["episodes_to_solve"])),
                wall_time_seconds=float(payload["wall_time_seconds"]),
                curve=curve,
                operation_counts={k: int(v)
                                  for k, v in payload["breakdown_counts"].items()},
                weight_resets=int(payload["weight_resets"]),
                seed=(None if payload["seed"] is None else int(payload["seed"])),
            )
            return result, str(record.get("backend_used", "unknown"))
        except (FileNotFoundError, KeyError, ValueError, json.JSONDecodeError,
                OSError, EOFError, zipfile.BadZipFile):
            # EOFError / BadZipFile: np.load on an empty or truncated .npz
            # (a run killed mid-save) — exactly the partial-write case that
            # must read as a miss so the trial reruns.
            return None

    # ------------------------------------------------------------------ mid-trial state
    # A one-trial Trainer's CheckpointCallback persists its full in-flight
    # training state here (pickled agent + env + bookkeeping, all RNG
    # streams included), so an interrupted `repro run` resumes *inside* a
    # trial and still reproduces the uninterrupted curve bit-for-bit.

    def trial_state_path(self, task: SweepTask) -> Path:
        return self.trial_dir(trial_key(task)) / "state.pkl"

    def save_trial_state(self, task: SweepTask, blob: bytes) -> Path:
        """Atomically persist a mid-trial checkpoint blob (temp + rename)."""
        path = self.trial_state_path(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"state.{os.getpid()}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return path

    def load_trial_state(self, task: SweepTask) -> Optional[bytes]:
        """The latest mid-trial checkpoint blob, or ``None``."""
        try:
            return self.trial_state_path(task).read_bytes()
        except (FileNotFoundError, OSError):
            return None

    def clear_trial_state(self, task: SweepTask) -> None:
        try:
            self.trial_state_path(task).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------ policies
    # A trained agent pickled next to its trial record — the deployable
    # artifact `repro serve` loads.  Written only on --save-policy runs:
    # curves are small, agents carry full hidden-layer matrices.

    def policy_path(self, task: SweepTask) -> Path:
        return self.trial_dir(trial_key(task)) / "policy.pkl"

    def save_policy(self, task: SweepTask, agent: Any) -> str:
        """Atomically persist one trial's trained agent; returns the trial key.

        The blob wraps the pickled agent with its trial descriptor so a
        served policy is auditable back to the exact training protocol and
        package version that produced it.
        """
        key = trial_key(task)
        path = self.policy_path(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps({
            "descriptor": trial_descriptor(task),
            "design": task.design,
            "agent": agent,
        }, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = path.with_name(f"policy.{os.getpid()}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return key

    def load_policy(self, task: SweepTask) -> Optional[Any]:
        """The trained agent saved for this trial, or ``None``.

        Like :meth:`load_trial`, a corrupt or truncated blob reads as a
        miss rather than crashing the caller; so does a stale one whose
        pickled classes have moved or gone (``AttributeError`` /
        ``ImportError``).
        """
        try:
            payload = pickle.loads(self.policy_path(task).read_bytes())
            return payload["agent"]
        except (FileNotFoundError, OSError, KeyError, TypeError,
                pickle.UnpicklingError, EOFError, AttributeError, ImportError):
            return None

    def has_policy(self, task: SweepTask) -> bool:
        return self.policy_path(task).exists()

    # ------------------------------------------------------------------ runs
    def save_run(self, spec: "ExperimentSpec",  # noqa: F821 - forward ref
                 trial_keys: List[str], *, backend: str,
                 backends_used: List[str]) -> Path:
        """Record one engine run: the spec plus the keys of its trials."""
        return save_json(self.run_path(spec.spec_hash), {
            "spec": spec.to_json(),
            "spec_hash": spec.spec_hash,
            "backend": backend,
            "backends_used": backends_used,
            "trial_keys": trial_keys,
        })

    def load_run(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        try:
            return load_json(self.run_path(spec_hash))
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None

    # ------------------------------------------------------------------ enumeration
    def list_runs(self) -> List[str]:
        """Spec hashes of every recorded run, newest first (by file mtime).

        ``list_runs()[0]`` is "the latest run" — the discovery entry point
        a serving launch uses when the caller knows the spec, not the hash.
        """
        runs_dir = self.root / "runs"
        try:
            paths = [path for path in runs_dir.iterdir()
                     if path.suffix == ".json"
                     and not path.name.endswith(".telemetry.json")]
        except (FileNotFoundError, NotADirectoryError):
            return []
        paths.sort(key=lambda path: (-path.stat().st_mtime, path.name))
        return [path.stem for path in paths]

    def list_trials(self, spec_hash: str) -> List[str]:
        """The trial keys of one recorded run, in spec grid order.

        Raises ``KeyError`` for an unknown (or unreadable) run record —
        "which run?" is a caller mistake, unlike a cache miss.
        """
        record = self.load_run(spec_hash)
        if record is None:
            raise KeyError(
                f"no run record for spec hash {spec_hash!r} under {self.root}")
        return [str(key) for key in record.get("trial_keys", [])]

    # ------------------------------------------------------------------ telemetry
    def telemetry_path(self, spec_hash: str) -> Path:
        return self.root / "runs" / f"{spec_hash}.telemetry.json"

    def save_telemetry(self, spec_hash: str,
                       snapshot: Dict[str, Any]) -> Path:
        """Persist one run's telemetry snapshot next to its run record."""
        return save_json(self.telemetry_path(spec_hash), snapshot)

    def load_telemetry(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        try:
            return load_json(self.telemetry_path(spec_hash))
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r})"


def _rebuild_curve(arrays: Dict[str, np.ndarray]) -> TrainingCurve:
    curve = TrainingCurve()
    n = int(arrays["episode"].shape[0])
    for i in range(n):
        lipschitz = float(arrays["lipschitz_bound"][i])
        beta_norm = float(arrays["beta_norm"][i])
        curve.append(EpisodeRecord(
            episode=int(arrays["episode"][i]),
            steps=int(arrays["steps"][i]),
            shaped_return=float(arrays["shaped_return"][i]),
            moving_average=float(arrays["moving_average"][i]),
            lipschitz_bound=None if np.isnan(lipschitz) else lipschitz,
            beta_norm=None if np.isnan(beta_norm) else beta_norm,
        ))
    return curve


__all__ = ["ArtifactStore", "STORE_FORMAT_VERSION", "STORE_ENV_VAR",
           "default_store_root", "trial_descriptor", "trial_key"]

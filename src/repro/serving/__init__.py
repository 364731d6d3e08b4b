"""repro.serving: the online policy-serving layer.

The paper's pitch is cheap *online* sequential learning — policies that
are usable the moment they are trained.  This package closes the loop:

* :class:`PolicyServer` (``server.py``) — a TCP daemon on the distributed
  backend's framing that answers action requests with greedy actions from
  one ``selectors`` loop thread: each ``ACT_BATCH`` frame (a matrix of
  rows as raw float64 bytes) gets one ``ACTIONS`` reply.  Natural
  batching: each tick lays the rows it
  read end to end per design and cuts them into calls of at most
  ``max_batch`` rows on the already-vectorized ``act_batch`` predict path,
  with no timer; greedy selection is RNG-free and a batch's Q-values are
  bit for bit its single-state ones, so served actions are byte-identical
  to offline greedy evaluation;
* :class:`PolicyClient` (``client.py``) — ``act``/``act_many`` (one
  ``ACT_BATCH`` frame per call)/``swap``/``stats``;
* :class:`WeightPushCallback` (``callback.py``) — a Trainer lifecycle hook
  that hot-swaps the in-training agent into a live server every N episodes;
* :func:`load_spec_policies` — discover trained ``policy.pkl`` artifacts
  for an experiment spec in an :class:`~repro.api.store.ArtifactStore`
  (written by ``repro run --save-policy``).

``repro serve <experiment>`` is the CLI front door; see the README's
"Serving" walkthrough.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serving.callback import WeightPushCallback
from repro.serving.client import PolicyClient, ServingError
from repro.serving.server import SERVING_MAX_FRAME_BYTES, PolicyServer


def load_spec_policies(store: Any, spec: Any,
                       designs: Optional[Sequence[str]] = None,
                       ) -> Tuple[Dict[str, Any], List[str]]:
    """Find one trained policy per design of ``spec`` in ``store``.

    For every requested design the spec's trial grid is scanned in order
    and the first trial with a loadable ``policy.pkl`` wins (trial 0 of the
    first hidden size / env unless that one is missing).  Returns
    ``(policies, problems)`` where ``problems`` lists one actionable
    message per design that could not be served — the serve preflight
    turns a non-empty list into a clean exit 2.
    """
    problems: List[str] = []
    if getattr(spec, "kind", None) == "resource_table":
        return {}, [f"spec {spec.name!r} is a resource table: it has no "
                    f"trained policies to serve"]
    requested = list(designs) if designs else list(spec.designs)
    unknown = [design for design in requested if design not in spec.designs]
    if unknown:
        return {}, [f"design {design!r} is not part of spec {spec.name!r} "
                    f"(its designs: {list(spec.designs)})"
                    for design in unknown]
    tasks = spec.tasks()
    policies: Dict[str, Any] = {}
    for design in requested:
        candidates = [task for task in tasks if task.design == design]
        for task in candidates:
            agent = store.load_policy(task)
            if agent is not None:
                policies[design] = agent
                break
        else:
            problems.append(
                f"no trained policy for design {design!r} under {store.root} "
                f"(searched {len(candidates)} trial"
                f"{'s' if len(candidates) != 1 else ''}); run "
                f"`repro run {spec.name} --save-policy` first")
    return policies, problems


__all__ = [
    "PolicyClient",
    "PolicyServer",
    "SERVING_MAX_FRAME_BYTES",
    "ServingError",
    "WeightPushCallback",
    "load_spec_policies",
]

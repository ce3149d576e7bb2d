"""Distributed sweep fabric: a work queue for sweep points.

``repro.experiments.fabric`` is a coordinator/worker transport for the
sweep executor (push-based dispatch in the spirit of arXiv
1905.07113): a coordinator serializes ``(point_fn, scale, params)``
tasks onto a length-prefixed TCP or Unix-socket work queue; N worker
processes — spawned locally or listening on remote hosts — pull
points, compute them and stream values (plus, when traced, obs
payloads) back. The sweep cache stays with ``run_sweep``: it looks
keys up before dispatch and writes computed values back. Dispatch is
straggler-aware: slow points are hedged onto idle workers and the
first result wins (see :mod:`repro.experiments.fabric.coordinator` for
the policy and the determinism argument).

Entry points:

* ``run_sweep(..., fabric=...)`` / ``set_default_fabric`` — every
  figure can run its points over a started fabric instead of the local
  pool;
* ``python -m repro.experiments.runner --workers 4`` (or
  ``--workers hostA:7070,hostB:7070``) — the CLI wiring;
* ``python -m repro.experiments.fabric worker --listen 0.0.0.0:7070``
  — a remote worker; ``--connect`` is used by spawned local workers.
"""

from __future__ import annotations

from repro.experiments.fabric.coordinator import Fabric, FabricError
from repro.experiments.fabric.protocol import (AUTH_ENV, WorkerSpec,
                                               auth_proof, fabric_secret,
                                               parse_address, parse_spec)

__all__ = [
    "AUTH_ENV",
    "Fabric",
    "FabricError",
    "WorkerSpec",
    "auth_proof",
    "fabric_secret",
    "parse_address",
    "parse_spec",
]

"""repro.fleet — server-owned fleet orchestration.

Workers join a repro-server's fleet instead of being listed by whoever
runs ``repro-sim explore --backend remote``, which turns that server
into a sweep **frontend** for many worker machines:

* :mod:`repro.fleet.registry` — the :class:`WorkerRegistry`: workers
  announce themselves with ``POST /fleet/register`` heartbeats (capacity
  + artifact-cache stats in the payload), expire on a TTL, re-join after
  restarts, and get flap-excluded when they bounce; the
  :class:`Heartbeater` is the worker-side loop behind
  ``repro-sim worker --register``.  ``/explore/submit`` with
  ``"backend": "fleet"`` runs the sweep on a
  :class:`repro.explore.backend.RemoteBackend` whose membership is this
  registry: it reconciles every poll, so jobs rebalance when workers
  join or leave mid-sweep — with records byte-identical to the serial
  baseline throughout.  With no live worker, the submit is refused with
  :class:`FleetError` (HTTP 503).
* :mod:`repro.fleet.cancel` — cooperative cancellation: the
  :class:`CancelToken` that ``/explore/cancel`` fires, checked inside
  the simulation hot loop every ``cancel_stride`` cycles and propagated
  to workers via ``/worker/cancel`` (:class:`CancelRegistry`), so an
  abandoned job stops within one check interval instead of burning its
  cycle budget.
"""

from repro.errors import FleetError
from repro.fleet.cancel import CancelRegistry, CancelToken
from repro.fleet.registry import (DEFAULT_TTL_S, FleetWorker, Heartbeater,
                                  WorkerRegistry)

__all__ = [
    "CancelToken",
    "CancelRegistry",
    "WorkerRegistry",
    "FleetWorker",
    "Heartbeater",
    "DEFAULT_TTL_S",
    "FleetError",
]

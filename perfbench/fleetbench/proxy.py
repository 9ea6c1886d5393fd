"""A forwarding proxy that times each dispatch operation by type.

The scenario runner drives a backend through four operations: opens,
one ``report_many`` wave per tick, ``update_pois`` churn batches and
closes.  :class:`TimedBackend` wraps any ``ServiceBackend`` and keeps
one latency sample per operation type (never pooled) plus the number
of calls attempted and failed.  Everything else — ``session_metrics``,
``metrics``, ``shard_loads`` and whatever a backend adds — is
forwarded untouched, so the runner and recorder cannot tell the proxy
from the backend.
"""

from __future__ import annotations

import time
from typing import Callable

#: The dispatch operations timed, in the order reports list them.
OPERATIONS = ("open_session", "report_many", "update_pois", "close_session")


class TimedBackend:
    """Times :data:`OPERATIONS` on ``backend``; forwards the rest."""

    def __init__(self, backend):
        self._backend = backend
        self.samples: dict[str, list[float]] = {op: [] for op in OPERATIONS}
        self.attempted = 0
        self.failed = 0
        self.on_call: Callable[[str, Callable], object] | None = None

    def __getattr__(self, name: str):
        # Only reached for names the proxy does not define itself.
        return getattr(self._backend, name)

    def _call(self, op: str, *args, **kwargs):
        self.attempted += 1
        target = getattr(self._backend, op)
        start = time.perf_counter()
        try:
            if self.on_call is not None:
                out = self.on_call(op, lambda: target(*args, **kwargs))
            else:
                out = target(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        self.samples[op].append(time.perf_counter() - start)
        return out

    def open_session(self, *args, **kwargs):
        return self._call("open_session", *args, **kwargs)

    def report_many(self, *args, **kwargs):
        return self._call("report_many", *args, **kwargs)

    def update_pois(self, *args, **kwargs):
        return self._call("update_pois", *args, **kwargs)

    def close_session(self, *args, **kwargs):
        return self._call("close_session", *args, **kwargs)

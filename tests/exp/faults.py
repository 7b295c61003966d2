"""A fault-injecting storage backend for the claim-protocol tests.

:class:`FaultInjectingBackend` wraps any
:class:`~repro.exp.backend.StorageBackend` and applies a scripted fault
on the Nth invocation of a chosen operation.  The fault-injection tier
(``tests/exp/test_backends.py``) drives the whole claim/steal/checkpoint
protocol through it, to prove single ownership survives lost and
duplicated operations.
"""

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.exp.backend import Record, StorageBackend


class BackendFault(RuntimeError):
    """An injected storage-backend failure."""


#: What a caller sees when an operation's acknowledgement is "lost":
#: the operation applied, but the backend reports the failure value.
_LOST_RESULTS = {
    "put_exclusive": False,
    "lease": False,
    "delete_if_owner": False,
    "delete": False,
    "atomic_replace": None,
    "read": None,
    "list_prefix": [],
    "exists": False,
}


class FaultInjectingBackend(StorageBackend):
    """Wrap any backend; apply a scripted fault on the Nth call of an op.

    ``inject(op, nth, action)`` arms one fault for the ``nth`` (1-based,
    counted per operation name) invocation of ``op``:

    ``"fail"``
        Raise :class:`BackendFault` *before* applying — the operation
        never happens (a dropped request).
    ``"lost"``
        Apply the operation, then report its failure value — the
        request landed but the acknowledgement was lost, so the caller
        must not assume it did.
    ``"duplicate"``
        Apply the operation twice, reporting the first result — a
        retried/duplicated delivery.
    ``("delay", seconds)``
        Sleep, then apply — a slow request other workers can overtake.
    any callable
        Invoked (no args) before applying — for test-orchestrated
        interleavings (barriers, events).

    ``log`` records every triggered fault as ``(op, nth, label)``.
    """

    def __init__(self, inner: StorageBackend) -> None:
        self.inner = inner
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._faults: Dict[Tuple[str, int], object] = {}
        self.log: List[Tuple[str, int, str]] = []

    def inject(self, op: str, nth: int, action: object = "fail") -> None:
        """Arm ``action`` for the ``nth`` (1-based) call of ``op``."""
        if op not in _LOST_RESULTS:
            raise ValueError(f"unknown backend operation {op!r}")
        if nth < 1:
            raise ValueError(f"nth is 1-based, got {nth}")
        with self._lock:
            self._faults[(op, nth)] = action

    def calls(self, op: str) -> int:
        """How many times ``op`` has been invoked so far."""
        with self._lock:
            return self._counts.get(op, 0)

    def _apply(self, op: str, call: Callable[[], object]) -> object:
        with self._lock:
            self._counts[op] = self._counts.get(op, 0) + 1
            action = self._faults.pop((op, self._counts[op]), None)
            nth = self._counts[op]
        if action is None:
            return call()
        label = action if isinstance(action, str) else getattr(
            action, "__name__", "hook"
        )
        with self._lock:
            self.log.append((op, nth, str(label)))
        if action == "fail":
            raise BackendFault(f"injected failure: {op} #{nth}")
        if action == "lost":
            call()
            return _LOST_RESULTS[op]
        if action == "duplicate":
            first = call()
            call()
            return first
        if isinstance(action, tuple) and action and action[0] == "delay":
            time.sleep(action[1])
            return call()
        if callable(action):
            action()
            return call()
        raise ValueError(f"unknown fault action {action!r}")

    def put_exclusive(self, key: str, data: bytes) -> bool:
        return self._apply(
            "put_exclusive", lambda: self.inner.put_exclusive(key, data)
        )

    def read(self, key: str) -> Optional[Record]:
        return self._apply("read", lambda: self.inner.read(key))

    def atomic_replace(self, key: str, data: bytes) -> None:
        return self._apply(
            "atomic_replace", lambda: self.inner.atomic_replace(key, data)
        )

    def lease(self, key: str, data: bytes, token: object) -> bool:
        return self._apply(
            "lease", lambda: self.inner.lease(key, data, token)
        )

    def delete_if_owner(self, key: str, owner: str) -> bool:
        return self._apply(
            "delete_if_owner",
            lambda: self.inner.delete_if_owner(key, owner),
        )

    def delete(self, key: str) -> bool:
        return self._apply("delete", lambda: self.inner.delete(key))

    def list_prefix(self, prefix: str) -> List[str]:
        return self._apply(
            "list_prefix", lambda: self.inner.list_prefix(prefix)
        )

    def exists(self, key: str) -> bool:
        return self._apply("exists", lambda: self.inner.exists(key))

    def ensure_prefix(self, prefix: str) -> None:
        # infrastructure, not protocol: never faulted
        self.inner.ensure_prefix(prefix)

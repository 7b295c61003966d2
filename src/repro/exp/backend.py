"""Storage backends for run directories.

Every piece of distributed-sweep state — the manifest, the claim files,
the result-cache checkpoints — lives in a *run store* addressed by
string keys (``manifest.json``, ``claims/<hash>.claim``,
``cache/<hash>.json``).  This module abstracts where those keys live, so
the same claim/steal/checkpoint protocol runs over a POSIX directory or
an in-memory dict, and so a test can wrap a backend to inject faults
without touching the protocol.

Atomicity contract
------------------
Every backend MUST honor these guarantees; the correctness of the claim
protocol (:class:`repro.exp.dist.ClaimBoard`) rests on nothing else:

``put_exclusive(key, data) -> bool``
    Create ``key`` holding exactly ``data`` **iff it does not exist**.
    Atomic and single-winner: of N concurrent callers, at most one
    returns ``True``.  A reader never observes a partially-written
    record — the record is complete the instant the key exists.
``read(key) -> Optional[Record]``
    The record's bytes plus an opaque *version token* identifying this
    exact revision, or ``None`` if the key does not exist.
``atomic_replace(key, data)``
    Unconditionally create-or-replace.  Readers see either the old or
    the new record in full, never a mixture.
``lease(key, data, token) -> bool``
    Compare-and-swap: replace the record **iff its current version
    token still equals** ``token``.  Single-winner: of N concurrent
    CAS attempts over one token, at most one succeeds.  The key never
    goes absent during the swap, whether it succeeds or not, so a
    concurrent ``put_exclusive`` on it fails.  Callers must treat
    ``False`` as "observe again", never as ownership.
``delete_if_owner(key, owner) -> bool``
    Delete the record iff it is a JSON object whose ``"owner"`` field
    equals ``owner``, atomically with respect to concurrent
    replacements: a record replaced by a foreign owner concurrently is
    never deleted, and a record that does not match never goes absent.
``delete(key) -> bool``
    Unconditional delete; ``False`` if the key was absent.
``list_prefix(prefix) -> list[str]``
    Every existing key starting with ``prefix`` (keys use ``/`` as the
    hierarchy separator).  Eventually-consistent listings are fine —
    the protocol never derives ownership from a listing.
``exists(key) -> bool``
    Cheap existence probe (no payload transfer required).

Version tokens are backend-specific (the raw bytes on the local
filesystem, a monotonic revision counter in memory) and are only ever
compared by the backend itself.

Implementations
---------------
:class:`LocalFSBackend`
    Today's on-disk layout, bit-compatible with run directories written
    before this abstraction existed.  ``put_exclusive`` is a temp file
    published via :func:`os.link` (exclusive-or-fail *and*
    complete-on-appearance); ``lease``/``delete_if_owner`` hold an
    exclusive :func:`fcntl.flock` on the key's lock file while they
    read, compare and then :func:`os.replace` or unlink the record.
:class:`InMemoryBackend`
    A locked dict — protocol tests without tmpdirs, the reference
    semantics :class:`LocalFSBackend` is judged against, and the trace
    store of in-process benchmarks.

The fault-injection tests (``tests/exp/test_backends.py``) wrap either
backend in a test double that drops, loses, duplicates or delays the Nth
call of an operation, and drive the whole protocol through it.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import os
import tempfile
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: Suffix of :class:`LocalFSBackend`'s per-key lock files.  They sit
#: beside their keys, live no longer than their keys and are not keys
#: themselves.
_LOCK_SUFFIX = ".lock"


@dataclass(frozen=True)
class Record:
    """One stored revision: payload bytes plus an opaque version token."""

    data: bytes
    token: object


def record_owner(data: bytes) -> str:
    """The ``"owner"`` field of a JSON record, or ``""`` when absent or
    unparseable — the shared schema ``delete_if_owner`` conditions on."""
    try:
        payload = json.loads(data)
        return str(payload["owner"])
    except (ValueError, KeyError, TypeError):
        return ""


class StorageBackend(ABC):
    """Abstract run store; see the module docstring for the contract."""

    @abstractmethod
    def put_exclusive(self, key: str, data: bytes) -> bool:
        """Atomically create ``key`` iff absent; ``True`` iff we won."""

    @abstractmethod
    def read(self, key: str) -> Optional[Record]:
        """Current record (bytes + version token), or ``None``."""

    @abstractmethod
    def atomic_replace(self, key: str, data: bytes) -> None:
        """Unconditional atomic create-or-replace."""

    @abstractmethod
    def lease(self, key: str, data: bytes, token: object) -> bool:
        """Compare-and-swap replace iff the version token is unchanged."""

    @abstractmethod
    def delete_if_owner(self, key: str, owner: str) -> bool:
        """Delete iff the record's JSON ``owner`` equals ``owner``."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Unconditionally delete; ``False`` if absent."""

    @abstractmethod
    def list_prefix(self, prefix: str) -> List[str]:
        """All existing keys under ``prefix``."""

    def exists(self, key: str) -> bool:
        """Cheap existence probe (default: a full read)."""
        return self.read(key) is not None

    def ensure_prefix(self, prefix: str) -> None:
        """Prepare a key prefix for writes (a directory ``mkdir`` on
        filesystems; a no-op on flat keyspaces)."""


class LocalFSBackend(StorageBackend):
    """Keys as files under a root directory (the historical layout).

    Version tokens are the record's raw bytes, so the CAS in
    :meth:`lease` is content-conditional.  :meth:`lease` and
    :meth:`delete_if_owner` hold an exclusive :func:`fcntl.flock` on the
    key's lock file (``<key>.lock``) while they read, compare and then
    :func:`os.replace` or unlink the record.  So no two of them
    interleave on one key, and the record never goes absent while it is
    compared: :meth:`put_exclusive`, which takes no lock, cannot land
    in between.  A lock holder that finds the key absent at the end of
    its block (:meth:`delete_if_owner` just deleted it) unlinks the lock
    file before releasing it, so a claim run leaves no lock files
    behind.  :meth:`list_prefix` skips lock files.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        # the root is created lazily on first write: a read-only probe
        # (e.g. load_manifest on a wrong path) must not litter the
        # filesystem with empty directories
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalFSBackend({str(self.root)!r})"

    def _path(self, key: str) -> Path:
        return self.root.joinpath(*key.split("/"))

    def ensure_prefix(self, prefix: str) -> None:
        (self.root / prefix.strip("/")).mkdir(parents=True, exist_ok=True)

    def _write_tmp(self, directory: Path, data: bytes) -> Path:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return Path(tmp)

    def put_exclusive(self, key: str, data: bytes) -> bool:
        # Publish via link(): exclusive-or-fail like O_EXCL, but the
        # record is complete the instant the key appears, so a racing
        # reader can never catch it half-written.
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._write_tmp(path.parent, data)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def read(self, key: str) -> Optional[Record]:
        try:
            data = self._path(key).read_bytes()
        except OSError:
            return None
        return Record(data=data, token=data)

    def atomic_replace(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._write_tmp(path.parent, data)
        try:
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @contextmanager
    def _key_lock(self, path: Path) -> Iterator[bool]:
        """Hold the exclusive lock of the key at ``path`` for the block.

        Yields whether the lock is held: it is not when the key's
        directory, and so the key, does not exist.  flock locks belong
        to the open file, so threads of one process exclude each other.

        When the block leaves the key absent, the lock file is unlinked
        while still locked.  A locker that waited on that file then holds
        a lock no later locker will take, so after every ``flock`` the
        lock path must still name the locked inode; if it does not, the
        file is closed and the lock taken again.
        """
        lock_path = f"{path}{_LOCK_SUFFIX}"
        while True:
            try:
                fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            except FileNotFoundError:
                yield False
                return
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                if os.fstat(fd).st_ino == os.stat(lock_path).st_ino:
                    break
            except FileNotFoundError:
                pass  # unlinked after our flock returned: take it again
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)
        try:
            yield True
            if not path.exists():
                os.unlink(lock_path)
        finally:
            os.close(fd)  # closing the file releases the lock

    def lease(self, key: str, data: bytes, token: object) -> bool:
        with self._key_lock(self._path(key)) as held:
            record = self.read(key) if held else None
            if record is None or record.token != token:
                return False
            self.atomic_replace(key, data)
            return True

    def delete_if_owner(self, key: str, owner: str) -> bool:
        with self._key_lock(self._path(key)) as held:
            record = self.read(key) if held else None
            if record is None or owner == "":
                return False
            if record_owner(record.data) != owner:
                return False
            return self.delete(key)

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
        except OSError:
            return False
        return True

    def list_prefix(self, prefix: str) -> List[str]:
        keys = []
        for directory, _, files in os.walk(self.root):
            base = Path(directory).relative_to(self.root)
            for name in files:
                if name.endswith(_LOCK_SUFFIX):
                    continue
                key = str(base / name) if str(base) != "." else name
                key = key.replace(os.sep, "/")
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)

    def exists(self, key: str) -> bool:
        return self._path(key).exists()


class InMemoryBackend(StorageBackend):
    """A locked dict: the reference semantics, for threaded tests.

    Version tokens are monotonic per-key revision counters.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._store: Dict[str, Tuple[bytes, int]] = {}
        self._revision = itertools.count(1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InMemoryBackend({len(self._store)} keys)"

    def put_exclusive(self, key: str, data: bytes) -> bool:
        with self._lock:
            if key in self._store:
                return False
            self._store[key] = (bytes(data), next(self._revision))
            return True

    def read(self, key: str) -> Optional[Record]:
        with self._lock:
            entry = self._store.get(key)
        if entry is None:
            return None
        return Record(data=entry[0], token=entry[1])

    def atomic_replace(self, key: str, data: bytes) -> None:
        with self._lock:
            self._store[key] = (bytes(data), next(self._revision))

    def lease(self, key: str, data: bytes, token: object) -> bool:
        with self._lock:
            entry = self._store.get(key)
            if entry is None or entry[1] != token:
                return False
            self._store[key] = (bytes(data), next(self._revision))
            return True

    def delete_if_owner(self, key: str, owner: str) -> bool:
        with self._lock:
            entry = self._store.get(key)
            if entry is None or owner == "":
                return False
            if record_owner(entry[0]) != owner:
                return False
            del self._store[key]
            return True

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._store.pop(key, None) is not None

    def list_prefix(self, prefix: str) -> List[str]:
        with self._lock:
            return sorted(k for k in self._store if k.startswith(prefix))

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._store


def as_backend(store: Union[str, Path, StorageBackend]) -> StorageBackend:
    """Coerce a run-store argument: paths become :class:`LocalFSBackend`
    roots, backends pass through unchanged."""
    if isinstance(store, StorageBackend):
        return store
    return LocalFSBackend(store)

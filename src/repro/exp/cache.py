"""Content-hashed on-disk cache for sweep task results.

A cache entry is keyed by everything that determines a task's result:
the fully-resolved task payload (config overrides including the seed,
offered rate, measurement windows) *and* a hash of the simulator's own
source tree.  Editing any file under ``repro/`` therefore invalidates
every entry automatically -- the cache can never serve results from an
older build of the simulator -- while re-running an unchanged sweep
executes zero tasks.

Entries are one JSON file each under ``.repro-cache/`` (configurable),
safe to delete wholesale at any time.  The directory is size-bounded:
:meth:`ResultCache.put` periodically prunes the oldest entries (by
mtime) once the directory exceeds ``max_bytes``, so long-lived sweep
and serve hosts never grow an unbounded cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Optional

from repro.cliutil import canonical_json

DEFAULT_CACHE_DIR = ".repro-cache"

#: Default size budget for a cache directory (512 MiB).  A cache entry
#: is a few KiB of aggregated metrics, so the default keeps ~10^5
#: results -- bounded, not stingy.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Prune on every Nth put: a directory scan is O(entries), so pruning
#: per-put would make a large sweep quadratic in its own cache.
PRUNE_EVERY = 64

#: The file names a cache writes: an entry, or a put in progress.
_OWN_NAME = re.compile(r"[0-9a-f]{32}(?:\.json|\.tmp\.(?P<pid>[0-9]+))")

_code_version: Optional[str] = None


def code_version_hash() -> str:
    """BLAKE2 digest over the installed ``repro`` package's sources.

    Hashes every ``*.py`` file under the package root in sorted
    relative-path order (path and content both feed the digest), so
    renames, additions, and edits all change the version.  Memoized
    per process: the tree cannot change under a running sweep.
    """
    global _code_version
    if _code_version is not None:
        return _code_version
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _code_version = digest.hexdigest()
    return _code_version


def content_key(payload: Dict[str, object], code_version: Optional[str] = None) -> str:
    """Content-addressed key for a JSON-able payload + simulator build.

    BLAKE2 over the canonical payload JSON and the source-tree hash --
    the same keying the sweep cache uses, exposed at module level so
    other subsystems (the ``repro.serve`` run store) can derive
    provenance identifiers without owning a cache directory.
    """
    if code_version is None:
        code_version = code_version_hash()
    blob = canonical_json({"payload": payload, "code": code_version})
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 checks, sends nothing)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # someone else's live process
    return True


class ResultCache:
    """One-file-per-result cache with content-hashed keys."""

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evicted = 0
        self._puts = 0

    def key_for(self, payload: Dict[str, object], code_version: Optional[str] = None) -> str:
        """The cache key for a task payload (see module docstring)."""
        return content_key(payload, code_version)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached result for ``key``, or None.

        A corrupt entry (interrupted write, manual tampering) reads as
        a miss and is removed, never an error.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            if path.exists():
                try:
                    path.unlink()
                except OSError:
                    pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Dict[str, object]) -> None:
        """Store a result atomically (rename over a temp file).

        Every :data:`PRUNE_EVERY`-th put (including the first, which
        catches a directory left oversized by an earlier process)
        triggers :meth:`prune` to keep the directory under
        ``max_bytes``.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(result, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._puts += 1
        if self._puts % PRUNE_EVERY == 1:
            self.prune()

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict oldest entries (by mtime, then name) until the
        directory fits ``max_bytes``.  The newest entry always
        survives, even if it alone exceeds the budget -- evicting the
        result that was just computed would make the cache useless.
        Returns the number of entries evicted.

        Only the names the cache writes are its own: ``<key>.json``
        entries, and ``<key>.tmp.<pid>`` puts in progress.  A put in
        progress counts toward the budget while its writer runs and is
        never touched; once that process is gone (killed between write
        and rename) the orphan is removed.  Any other file in the
        directory is neither counted nor removed.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        entries = []
        total = 0
        for path in self.root.glob("*"):
            name = _OWN_NAME.fullmatch(path.name)
            if name is None:
                continue  # not a file this cache wrote: never counted or evicted
            try:
                stat = path.stat()
                pid = name.group("pid")
                if pid is None:
                    entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
                elif not _running(int(pid)):
                    path.unlink()
                    continue
            except OSError:
                continue  # renamed or removed meanwhile (a put's rename, another pruner)
            total += stat.st_size
        entries.sort()
        evicted = 0
        for _, _, path, size in entries[:-1]:  # newest always survives
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evicted += evicted
        return evicted

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, evicted={self.evicted})"
        )

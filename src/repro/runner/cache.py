"""Content-addressed on-disk result cache for experiment jobs.

Each cached entry is one JSON file under the cache root (default
``.repro_cache/``), named ``<experiment>-<digest>.json`` where the
digest is the SHA-256 of the canonical JSON encoding of::

    {"experiment": <key>, "kwargs": <job kwargs>, "version": <repro.__version__>,
     "source": <SHA-256 of src/repro/**/*.py>}

Keying on the package version means a release invalidates every entry
without any bookkeeping, and keying on the source digest means an edit
to any module does too, so a cache never replays a result computed by
different code.  Experiment jobs carry ``{}`` as their kwargs; the
kwargs stay in the key so that a job run with arguments through
:func:`~repro.runner.pool.run_jobs` never reads another's entry.
Entries are written atomically (temp file + ``os.replace``) so
concurrent jobs never observe a torn file, and any unreadable or
mismatched entry is treated as a miss.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro._version import __version__

DEFAULT_CACHE_DIR = ".repro_cache"


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the paths and contents of the package's ``*.py`` files.

    Hashed once per process, on the first cache lookup, so runs without
    a cache never pay for it.
    """
    digest = hashlib.sha256()
    package = Path(__file__).resolve().parents[1]
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package.parent).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def canonical_kwargs(kwargs: dict[str, Any]) -> str:
    """Deterministic JSON encoding of a job's kwargs (sorted, compact)."""
    return json.dumps(kwargs, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CacheEntry:
    """One stored result: the report text plus its provenance."""

    key: str
    experiment: str
    kwargs: dict[str, Any]
    version: str
    output: str
    compute_time_s: float


class ResultCache:
    """A directory of content-addressed experiment results."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def key_for(self, experiment: str, kwargs: dict[str, Any]) -> str:
        """SHA-256 digest identifying (experiment, kwargs, version, source)."""
        payload = json.dumps(
            {
                "experiment": experiment,
                "kwargs": json.loads(canonical_kwargs(kwargs)),
                "version": __version__,
                "source": source_digest(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, experiment: str, kwargs: dict[str, Any]) -> Path:
        """Where the entry for (experiment, kwargs) lives on disk."""
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in experiment)
        return self.root / f"{safe}-{self.key_for(experiment, kwargs)[:16]}.json"

    def get(self, experiment: str, kwargs: dict[str, Any]) -> CacheEntry | None:
        """Look up a result; any corruption or mismatch is a miss."""
        path = self.path_for(experiment, kwargs)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        expected = self.key_for(experiment, kwargs)
        if (
            not isinstance(raw, dict)
            or raw.get("key") != expected
            or raw.get("experiment") != experiment
            or raw.get("version") != __version__
            or not isinstance(raw.get("output"), str)
        ):
            return None
        return CacheEntry(
            key=expected,
            experiment=experiment,
            kwargs=dict(kwargs),
            version=__version__,
            output=raw["output"],
            compute_time_s=float(raw.get("compute_time_s", 0.0)),
        )

    def put(
        self,
        experiment: str,
        kwargs: dict[str, Any],
        output: str,
        compute_time_s: float,
    ) -> Path:
        """Store a result atomically; returns the entry path."""
        path = self.path_for(experiment, kwargs)
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": self.key_for(experiment, kwargs),
            "experiment": experiment,
            "kwargs": json.loads(canonical_kwargs(kwargs)),
            "version": __version__,
            "source": source_digest(),
            "compute_time_s": compute_time_s,
            "output": output,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, indent=1), encoding="utf-8")
        os.replace(tmp, path)
        return path


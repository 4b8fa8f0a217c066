"""Content-addressed on-disk cache for experiment results.

Entries are keyed by a sha256 over the *identity* of a computation —
experiment id, unit key, scale, seed, unit parameters, the experiment's
declared options — plus a fingerprint of the ``repro`` source tree, so
editing any module under ``src/repro/`` automatically invalidates every
cached result.  Payloads are JSON (``ExperimentOutput.data`` /
unit-result dicts), sharded as ``<root>/<key[:2]>/<key>.json`` with
atomic writes so concurrent runs sharing a cache directory never
observe torn files.

The JSON round-trip canonicalizes container types (tuples and numpy
arrays become lists, non-string dict keys become strings): warm-cache
payloads are value-identical to cold ones but not type-identical.
Cold runs never read back through the cache, so serial/parallel
byte-identity is unaffected.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

PathLike = Union[str, Path]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "RTOPEX_CACHE_DIR"

_fingerprint_cache: Dict[str, str] = {}


def default_cache_dir() -> Path:
    """``$RTOPEX_CACHE_DIR`` if set, else ``~/.cache/rtopex-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rtopex-repro"


def code_fingerprint() -> str:
    """sha256 over every ``.py`` file of the installed ``repro`` package.

    Computed once per process; part of every cache key, so results
    produced by a different code version can never be served.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    cache_key = str(root)
    if cache_key in _fingerprint_cache:
        return _fingerprint_cache[cache_key]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _fingerprint_cache[cache_key] = fingerprint
    return fingerprint


def _json_default(obj: object) -> object:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON-serializable")


class ResultCache:
    """Content-addressed experiment-result store with hit/miss counters."""

    def __init__(self, root: PathLike, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self.hits = 0
        self.misses = 0

    def key(
        self,
        experiment_id: str,
        unit_key: str,
        scale: float,
        seed: int,
        params: Optional[Mapping[str, object]] = None,
        options: Optional[Mapping[str, str]] = None,
    ) -> str:
        identity = {
            "experiment_id": experiment_id,
            "unit_key": unit_key,
            "scale": scale,
            "seed": seed,
            "params": dict(params) if params else {},
            "options": dict(options) if options else {},
            "fingerprint": self.fingerprint,
        }
        blob = json.dumps(identity, sort_keys=True, default=_json_default)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload, or ``None`` (corrupt entries count as misses)."""
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Mapping[str, object]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, default=_json_default)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))

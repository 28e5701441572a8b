"""On-disk cache of finished sweep points.

The cache key covers every parameter value, the point's seed, and a
code-version tag, so a re-run of a grid serves every unchanged point
from disk and an interrupted sweep resumes from what it already
finished.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Mapping, Optional

#: Code-version tag baked into every cache key. Bump when runner or
#: simulator semantics change in a way that invalidates stored metrics.
CODE_VERSION_TAG = "repro-sweep-v1"


class SweepCache:
    """On-disk cache of finished sweep points.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the BLAKE2b
    hex digest of the canonical JSON of ``{"params", "seed", "tag"}``.
    The tag defaults to :data:`CODE_VERSION_TAG`; pass your own
    ``version_tag`` to segregate (and thereby invalidate) results across
    incompatible runner versions. Because the key covers every parameter
    value and the seed, any config change misses the cache naturally —
    stale entries are never *read*, only left behind.

    Entries store the params and metrics as JSON, written atomically
    (tmp file + ``os.replace``) so a killed sweep never leaves a
    half-written entry behind.
    """

    def __init__(self, root: str, version_tag: str = CODE_VERSION_TAG) -> None:
        self.root = str(root)
        self.version_tag = version_tag
        self.hits = 0
        self.misses = 0
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def key_for(self, params: Mapping[str, Any], seed: Optional[int] = None) -> str:
        payload = json.dumps(
            {"params": dict(params), "seed": seed, "tag": self.version_tag},
            sort_keys=True,
            default=repr,
        )
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()

    def path_for(self, params: Mapping[str, Any], seed: Optional[int] = None) -> str:
        key = self.key_for(params, seed)
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    def get(
        self, params: Mapping[str, Any], seed: Optional[int] = None
    ) -> Optional[Dict[str, float]]:
        """Stored metrics for ``(params, seed)``, or ``None`` on a miss."""
        path = self.path_for(params, seed)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return dict(entry["metrics"])

    def put(
        self,
        params: Mapping[str, Any],
        seed: Optional[int],
        metrics: Mapping[str, float],
    ) -> str:
        """Store one finished point; returns the entry's path."""
        path = self.path_for(params, seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "params": dict(params),
            "seed": seed,
            "tag": self.version_tag,
            "metrics": dict(metrics),
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, sort_keys=True, default=repr)
        os.replace(tmp, path)
        return path

"""Persistent JSON cache for level-k fusion tables.

One JSON document per table; the filename is the SHA-256 of the canonical
key, so lookups never scan the directory. The payload holds plain JSON
integers, ``{"level": k, "alcove": [...], "entries": [[lam, mu, nu, c], ...]}``,
and the document stores the SHA-256 of its canonical encoding beside it. A
document that cannot be parsed, whose schema or key differs from the request,
whose payload does not hash to the stored digest, or whose level or alcove
does not match the request counts as a miss, so the caller recomputes and
overwrites it. Writes go through a temp file plus rename, so concurrent
readers always see a complete document; a directory that cannot be written
leaves the table uncached and never fails the caller.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

from .fusion import FusionTable, level_alcove
from .rootdata import RootSystem

SCHEMA_VERSION = 2

ENV_VAR = "FUSIONKIT_CACHE"
LOCAL_DIR = ".fusionkit-cache"


def resolve_cache_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path(LOCAL_DIR)


def table_key(cartan_type: str, level: int) -> str:
    return f"fusion_table|{cartan_type}|{level}"


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class DiskCache:
    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def load_table(self, rs: RootSystem, level: int) -> FusionTable | None:
        """The stored level table; None on a miss, a damaged document or a wrong alcove."""
        key = table_key(str(rs.cartan_type), level)
        try:
            doc = json.loads(self._path(key).read_bytes())
            payload = doc["payload"]
            if (doc["schema_version"], doc["key"], doc["digest"]) != (
                SCHEMA_VERSION, key, _digest(payload)
            ):
                return None
            alcove = level_alcove(rs, level)
            if payload["level"] != level or payload["alcove"] != [list(w) for w in alcove]:
                return None
            coeffs = {
                (tuple(lam), tuple(mu), tuple(nu)): c for lam, mu, nu, c in payload["entries"]
            }
        # a file that is missing, unreadable or not the document we wrote
        except (OSError, LookupError, TypeError, ValueError, RecursionError):
            return None
        return FusionTable(
            cartan_type=str(rs.cartan_type), level=level, alcove=tuple(alcove), coeffs=coeffs
        )

    def store_table(self, rs: RootSystem, table: FusionTable) -> None:
        key = table_key(str(rs.cartan_type), table.level)
        payload = {
            "level": table.level,
            "alcove": table.alcove,
            "entries": [[*triple, c] for triple, c in sorted(table.coeffs.items())],
        }
        doc = {"schema_version": SCHEMA_VERSION, "key": key, "digest": _digest(payload),
               "payload": payload}
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc))
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError:
            pass  # an unwritable cache leaves the table uncached
        finally:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

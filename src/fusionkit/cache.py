"""Persistent JSON cache for level-k fusion tables.

One document per table; the filename is the SHA-256 of the canonical key, so
lookups never scan the directory. A document is two lines: a header,
``{"schema_version": 3, "key": ..., "digest": ...}``, then the payload in
plain JSON integers, ``{"level": k, "alcove": [...], "entries": [[lam, mu,
nu, c], ...]}``, where the digest is the SHA-256 of the payload line's bytes
as written. A document whose header differs from the request, whose payload
line does not hash to the digest, whose level or alcove does not match the
request, or whose entries are not cells of the table (a weight off the
alcove, a coefficient that is not a positive int, a triple listed twice)
counts as a miss, so the caller recomputes and overwrites it; the payload is
parsed only after its bytes are checked. Writes go through a temp
file plus rename, so concurrent readers always see a complete document; a
directory that cannot be written leaves the table uncached and never fails
the caller.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path

from .fusion import FusionTable, level_alcove
from .rootdata import RootSystem

SCHEMA_VERSION = 3

ENV_VAR = "FUSIONKIT_CACHE"
LOCAL_DIR = ".fusionkit-cache"
_TEMP_NAMES = itertools.count()


def resolve_cache_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path(LOCAL_DIR)


def table_key(cartan_type: str, level: int) -> str:
    return f"fusion_table|{cartan_type}|{level}"


def _create_temp(root: Path) -> tuple[int, Path]:
    """A new file of mode 0o600 in root, named by process, thread and a counter."""
    while True:
        path = root / f".{os.getpid()}-{threading.get_ident()}-{next(_TEMP_NAMES)}.tmp"
        with contextlib.suppress(FileExistsError):  # left by a process that had this pid
            return os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600), path


def _header(key: str, body: bytes) -> dict:
    digest = hashlib.sha256(body).hexdigest()
    return {"schema_version": SCHEMA_VERSION, "key": key, "digest": digest}


class DiskCache:
    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def load_table(self, rs: RootSystem, level: int) -> FusionTable | None:
        """The stored level table; None on a miss, a damaged document or one that does not fit."""
        key = table_key(str(rs.cartan_type), level)
        try:
            head, body, end = self._path(key).read_bytes().split(b"\n")
            if end or json.loads(head) != _header(key, body):
                return None
            payload = json.loads(body)
            alcove = level_alcove(rs, level)
            if payload["level"] != level or payload["alcove"] != [list(w) for w in alcove]:
                return None
            # a weight off the alcove is a KeyError; the cells share the alcove's tuples
            on_alcove, coeffs = {w: w for w in alcove}, {}
            for lam, mu, nu, c in payload["entries"]:
                triple = on_alcove[tuple(lam)], on_alcove[tuple(mu)], on_alcove[tuple(nu)]
                if type(c) is not int or c < 1 or triple in coeffs:  # a bool is not an int here
                    return None
                coeffs[triple] = c
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
        body = json.dumps(payload).encode("utf-8")
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = _create_temp(self.root)
            with os.fdopen(fd, "wb") as handle:
                handle.write(json.dumps(_header(key, body)).encode("utf-8") + b"\n" + body + b"\n")
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError:
            pass  # an unwritable cache leaves the table uncached
        finally:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

"""Persistent JSON cache for weight diagrams and fusion tables.

One JSON document per entry; the filename is the SHA-256 of the canonical
key, so lookups never scan the directory. All integers in payloads are
decimal strings, which keeps round-trips lossless at any magnitude. Writes go
through a temp file plus rename, so concurrent readers always see a complete
document. A document that cannot be parsed back whole, or that does not match
the request (a table's level and alcove, a diagram's highest weight and Weyl
dimension), counts as a miss, so the caller recomputes and overwrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .fusion import FusionTable, level_alcove
from .multiplicity import WeightDiagram, weyl_dimension
from .rootdata import RootSystem, Weight

SCHEMA_VERSION = 1

ENV_VAR = "FUSIONKIT_CACHE"
LOCAL_DIR = ".fusionkit-cache"


def resolve_cache_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path(LOCAL_DIR)


def _coords_str(w: Weight) -> str:
    return ",".join(str(int(c)) for c in w)


def _parse_coords(s: str) -> Weight:
    return tuple(int(p) for p in s.split(","))


def _parse_int(s: str) -> int:
    if type(s) is not str:
        raise TypeError(f"expected a decimal string, got {s!r}")
    return int(s)


# what a well-formed JSON document with a damaged payload raises while parsing
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError)


def diagram_key(cartan_type: str, lam: Weight) -> str:
    return f"weight_diagram|{cartan_type}|{_coords_str(lam)}"


def table_key(cartan_type: str, level: int) -> str:
    return f"fusion_table|{cartan_type}|{level}"


class DiskCache:
    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def _read(self, key: str, kind: str) -> dict | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema_version") != SCHEMA_VERSION
            or doc.get("payload_kind") != kind
            or doc.get("key") != key
        ):
            return None
        return doc

    def _write(self, rs: RootSystem, kind: str, key: str, payload: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "cartan_type": str(rs.cartan_type),
            "payload_kind": kind,
            "key": key,
            "payload": payload,
        }
        text = json.dumps(doc, sort_keys=True, indent=1)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- weight diagrams -------------------------------------------------

    def load_diagram(self, rs: RootSystem, lam: Weight) -> WeightDiagram | None:
        """The stored diagram of V^lam; None on a miss or a damaged document."""
        lam = tuple(lam)
        key = diagram_key(str(rs.cartan_type), lam)
        doc = self._read(key, "weight_diagram")
        if doc is None:
            return None
        try:
            payload = doc["payload"]
            table = {_parse_coords(w): _parse_int(m) for w, m in payload["entries"]}
            highest = _parse_coords(payload["highest"])
        except _MALFORMED:
            return None
        diagram = WeightDiagram(highest=highest, table=table, root_system=rs)
        if highest != lam or diagram.dimension != weyl_dimension(rs, lam):
            return None
        return diagram

    def store_diagram(self, rs: RootSystem, diagram: WeightDiagram) -> None:
        key = diagram_key(str(rs.cartan_type), diagram.highest)
        payload = {
            "highest": _coords_str(diagram.highest),
            "entries": [
                [_coords_str(w), str(m)] for w, m in sorted(diagram.table.items())
            ],
        }
        self._write(rs, "weight_diagram", key, payload)

    # -- fusion tables ---------------------------------------------------

    def load_table(self, rs: RootSystem, level: int) -> FusionTable | None:
        """The stored level table; None on a miss, a damaged document or a wrong alcove."""
        key = table_key(str(rs.cartan_type), level)
        doc = self._read(key, "fusion_table")
        if doc is None:
            return None
        try:
            payload = doc["payload"]
            stored_level = _parse_int(payload["level"])
            alcove = tuple(_parse_coords(p) for p in payload["alcove"])
            coeffs = {}
            for triple, c in payload["entries"]:
                lam, mu, nu = (_parse_coords(p) for p in triple.split("|"))
                coeffs[(lam, mu, nu)] = _parse_int(c)
        except _MALFORMED:
            return None
        if stored_level != level or list(alcove) != level_alcove(rs, level):
            return None
        return FusionTable(
            cartan_type=str(rs.cartan_type), level=level, alcove=alcove, coeffs=coeffs
        )

    def store_table(self, rs: RootSystem, table: FusionTable) -> None:
        key = table_key(str(rs.cartan_type), table.level)
        payload = {
            "level": str(table.level),
            "alcove": [_coords_str(w) for w in table.alcove],
            "entries": [
                ["|".join(_coords_str(w) for w in triple), str(c)]
                for triple, c in sorted(table.coeffs.items())
            ],
        }
        self._write(rs, "fusion_table", key, payload)

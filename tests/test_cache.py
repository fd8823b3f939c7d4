import json

import pytest

from fusionkit import fusion_table, weight_diagram
from fusionkit.cache import DiskCache, diagram_key, resolve_cache_dir
from fusionkit.cli import main


def test_diagram_round_trip(tmp_path, a2):
    cache = DiskCache(tmp_path)
    original = weight_diagram(a2, (2, 1))
    assert cache.load_diagram(a2, (2, 1)) is None
    cache.store_diagram(a2, original)
    loaded = cache.load_diagram(a2, (2, 1))
    assert loaded is not None
    assert loaded.highest == original.highest
    assert dict(loaded.table) == dict(original.table)


def test_table_round_trip(tmp_path, a2):
    cache = DiskCache(tmp_path)
    original = fusion_table(a2, 2)
    assert cache.load_table(a2, 2) is None
    cache.store_table(a2, original)
    loaded = cache.load_table(a2, 2)
    assert loaded is not None
    assert loaded.level == 2 and loaded.alcove == original.alcove
    assert loaded.coeffs == original.coeffs


def test_payload_integers_are_decimal_strings(tmp_path, a2):
    cache = DiskCache(tmp_path)
    cache.store_diagram(a2, weight_diagram(a2, (1, 1)))
    path = cache._path(diagram_key("A2", (1, 1)))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["payload_kind"] == "weight_diagram"
    for key, value in doc["payload"]["entries"]:
        assert isinstance(key, str) and isinstance(value, str)
        int(value)


def test_schema_version_mismatch_is_a_miss(tmp_path, a2):
    cache = DiskCache(tmp_path)
    cache.store_diagram(a2, weight_diagram(a2, (1, 0)))
    path = cache._path(diagram_key("A2", (1, 0)))
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    assert cache.load_diagram(a2, (1, 0)) is None


def test_corrupt_entry_is_a_miss(tmp_path, a2):
    cache = DiskCache(tmp_path)
    cache.store_diagram(a2, weight_diagram(a2, (1, 0)))
    path = cache._path(diagram_key("A2", (1, 0)))
    path.write_text("{ not json")
    assert cache.load_diagram(a2, (1, 0)) is None


def test_cache_dir_resolution(tmp_path, monkeypatch):
    assert resolve_cache_dir("/explicit/dir").name == "dir"
    monkeypatch.setenv("FUSIONKIT_CACHE", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    monkeypatch.delenv("FUSIONKIT_CACHE")
    assert resolve_cache_dir(None).name == ".fusionkit-cache"


def test_no_temp_files_left_behind(tmp_path, a2):
    cache = DiskCache(tmp_path)
    cache.store_diagram(a2, weight_diagram(a2, (2, 0)))
    cache.store_table(a2, fusion_table(a2, 1))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
    assert leftovers == []


def _cached_file(tmp_path):
    (path,) = tmp_path.glob("*.json")
    return path


@pytest.mark.parametrize(
    "damage",
    [
        lambda p: p.pop("entries"),
        lambda p: p.pop("alcove"),
        lambda p: p.pop("level"),
        lambda p: p.update(entries=[["1,0|1,0", "1"]]),
        lambda p: p.update(entries=[["1,0|1,0|0,1", 1]]),
        lambda p: p.update(entries={"1,0": "1"}),
        lambda p: p.update(alcove="0,0"),
        lambda p: p.update(alcove=p["alcove"][:-1]),
        lambda p: p.update(level=2),
        lambda p: p.update(level="3"),
    ],
    ids=["no-entries", "no-alcove", "no-level", "short-triple", "int-value", "dict-entries",
         "string-alcove", "short-alcove", "int-level", "wrong-level"],
)
def test_damaged_table_is_recomputed_and_overwritten(capsys, tmp_path, a2, damage):
    argv = ["fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = _cached_file(tmp_path)
    original = path.read_text()
    doc = json.loads(original)
    damage(doc["payload"])
    path.write_text(json.dumps(doc))
    assert DiskCache(tmp_path).load_table(a2, 2) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert path.read_text() == original


@pytest.mark.parametrize(
    "damage",
    [
        lambda p: p.pop("entries"),
        lambda p: p.pop("highest"),
        lambda p: p.update(highest="0,1"),
        lambda p: p.update(entries=p["entries"][:-1]),
        lambda p: p.update(entries=[[1, "1"]]),
    ],
    ids=["no-entries", "no-highest", "wrong-highest", "short-entries", "int-weight"],
)
def test_damaged_diagram_is_a_miss(tmp_path, a2, damage):
    cache = DiskCache(tmp_path)
    cache.store_diagram(a2, weight_diagram(a2, (1, 0)))
    path = _cached_file(tmp_path)
    doc = json.loads(path.read_text())
    damage(doc["payload"])
    path.write_text(json.dumps(doc))
    assert cache.load_diagram(a2, (1, 0)) is None


def test_non_object_document_is_a_miss(tmp_path, a2):
    cache = DiskCache(tmp_path)
    cache.store_table(a2, fusion_table(a2, 1))
    _cached_file(tmp_path).write_text("[1, 2]")
    assert cache.load_table(a2, 1) is None

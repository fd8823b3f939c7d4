import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import FusionTable, fusion_table
from fusionkit.cache import DiskCache, _header, resolve_cache_dir, table_key
from fusionkit.cli import main


def _read(path):
    """[header, payload] of a stored document."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write(path, header, payload, sign=False):
    """Write a document back; with sign, the header's digest is that of the new payload line."""
    body = json.dumps(payload)
    if sign:
        header = {**header, "digest": hashlib.sha256(body.encode("utf-8")).hexdigest()}
    path.write_text(json.dumps(header) + "\n" + body + "\n")


def test_table_round_trip(tmp_path, a2):
    cache = DiskCache(tmp_path)
    original = fusion_table(a2, 2)
    assert cache.load_table(a2, 2) is None
    cache.store_table(a2, original)
    loaded = cache.load_table(a2, 2)
    assert loaded is not None
    assert loaded.level == 2 and loaded.alcove == original.alcove
    assert loaded.coeffs == original.coeffs
    assert loaded == original and loaded is not original  # value equality, as a record
    cell, value = next(iter(original.coeffs.items()))
    changed = {**original.coeffs, cell: value + 1}
    assert loaded != FusionTable(original.cartan_type, 2, original.alcove, changed)


def test_document_is_compact_plain_json_with_a_payload_digest(tmp_path, a2):
    cache = DiskCache(tmp_path)
    table = fusion_table(a2, 2)
    cache.store_table(a2, table)
    data = cache._path(table_key("A2", 2)).read_bytes()
    head, body, end = data.split(b"\n")  # a header line, then the payload line, unindented
    header, payload = json.loads(head), json.loads(body)
    assert end == b"" and head == json.dumps(header).encode()
    assert body == json.dumps(payload).encode()
    assert header == {"schema_version": 3, "key": table_key("A2", 2),
                      "digest": hashlib.sha256(body).hexdigest()}
    assert payload["level"] == 2 and payload["alcove"] == [list(w) for w in table.alcove]
    entries = {(tuple(lam), tuple(mu), tuple(nu)): c for lam, mu, nu, c in payload["entries"]}
    assert entries == table.coeffs


def _stored(tmp_path, rs, level):
    cache = DiskCache(tmp_path)
    cache.store_table(rs, fusion_table(rs, level))
    return cache, cache._path(table_key(str(rs.cartan_type), level))


def test_schema_version_mismatch_is_a_miss(tmp_path, a2):
    cache, path = _stored(tmp_path, a2, 1)
    header, payload = _read(path)
    _write(path, {**header, "schema_version": 99}, payload)
    assert cache.load_table(a2, 1) is None


def test_corrupt_entry_is_a_miss(tmp_path, a2):
    cache, path = _stored(tmp_path, a2, 1)
    path.write_text("{ not json")
    assert cache.load_table(a2, 1) is None


def test_cache_dir_resolution(tmp_path, monkeypatch):
    assert resolve_cache_dir("/explicit/dir").name == "dir"
    monkeypatch.setenv("FUSIONKIT_CACHE", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    monkeypatch.delenv("FUSIONKIT_CACHE")
    assert resolve_cache_dir(None).name == ".fusionkit-cache"


def test_no_temp_files_left_behind(tmp_path, a2, monkeypatch):
    table = fusion_table(a2, 1)
    DiskCache(tmp_path / "ok").store_table(a2, table)
    assert [p.suffix for p in (tmp_path / "ok").iterdir()] == [".json"]

    def no_space(*args):
        raise OSError(28, "No space left on device")

    # the temp file is written in full before the rename fails
    monkeypatch.setattr(os, "replace", no_space)
    failing = DiskCache(tmp_path / "full")
    failing.store_table(a2, table)
    assert list(failing.root.iterdir()) == []
    assert failing.load_table(a2, 1) is None


def _cached_file(tmp_path):
    (path,) = tmp_path.glob("*.json")
    return path


def _set_first_one_to_two(payload):
    entry = next(e for e in payload["entries"] if e[3] == 1)
    entry[3] = 2


@pytest.mark.parametrize(
    "damage",
    [
        lambda p: p.pop("entries"),
        lambda p: p.pop("alcove"),
        lambda p: p.pop("level"),
        lambda p: p["entries"][0].pop(2),
        _set_first_one_to_two,
        lambda p: p.update(entries={"1,0": 1}),
        lambda p: p.update(alcove="0,0"),
        lambda p: p.update(alcove=p["alcove"][:-1]),
        lambda p: p.update(level="2"),
        lambda p: p.update(level=3),
        lambda p: p["entries"][0].__setitem__(2, [3, 3]),
        lambda p: p["entries"][0].__setitem__(2, [7, 7, 7]),
        lambda p: p["entries"][0].__setitem__(3, 0),
        lambda p: p["entries"].pop(),
        lambda p: p["entries"][0].__setitem__(3, "1"),
    ],
    ids=["no-entries", "no-alcove", "no-level", "short-triple", "int-value", "dict-entries",
         "string-alcove", "short-alcove", "string-level", "wrong-level", "outside-alcove",
         "wrong-rank", "zero-value", "dropped-entry", "string-value"],
)
def test_damaged_table_is_recomputed_and_overwritten(capsys, tmp_path, a2, damage):
    argv = ["fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = _cached_file(tmp_path)
    original = path.read_text()
    header, payload = _read(path)
    damage(payload)
    _write(path, header, payload)
    assert DiskCache(tmp_path).load_table(a2, 2) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert path.read_text() == original


@pytest.mark.parametrize(
    "damage",
    [lambda p: p.update(level=3), lambda p: p.update(alcove=p["alcove"][:-1])],
    ids=["level", "alcove"],
)
def test_signed_document_with_another_level_or_alcove_is_a_miss(tmp_path, a2, damage):
    """The digest proves only that the payload is intact; it must still fit the request."""
    cache, path = _stored(tmp_path, a2, 2)
    header, payload = _read(path)
    damage(payload)
    _write(path, header, payload, sign=True)
    assert cache.load_table(a2, 2) is None


@pytest.mark.parametrize("entries", [
    [[[0], [0], [0], True], [[0], [1], [1], 1], [[1], [0], [1], 1], [[1], [1], [0], 1]],
    [[[0], [0], [0], 1], [[0], [1], [1], "7"], [[1], [0], [1], 1], [[1], [1], [0], 1]],
    [[[0], [0], [0], 1], [[0], [1], [1], 1.0], [[1], [0], [1], 1], [[1], [1], [0], 1]],
    [[[0], [0], [0], 1], [[0], [1], [1], 0], [[1], [0], [1], 1], [[1], [1], [0], 1]],
    [[[0], [0], [0], 1], [[0], [1], [1], 1], [[1], [0], [1], 1], [[1], [1], [0], -3]],
    [[[0], [0], [0], 1], [[0], [1], [1], 1], [[1], [0], [1], 1], [[5], [5], [5], 1]],
    [[[0], [0], [0], 1], [[0], [1], [1], 1], [[0], [1], [1], 1], [[1], [1], [0], 1]],
    [[[0], [0], [0], True], [[0], [1], [1], "7"], [[5], [5], [5], -3]],
], ids=["bool", "str", "float", "zero", "negative", "off-alcove", "repeated", "all-three"])
def test_signed_document_with_entries_that_are_not_cells_is_a_miss(capsys, tmp_path, a1, entries):
    """A header and digest that match prove only that the bytes are ours; every entry must
    still be a cell of the table: weights on the alcove, a positive int, each triple once."""
    argv = ["fusion", "A1", "--level", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = _cached_file(tmp_path)
    original = path.read_text()
    body = json.dumps({"level": 1, "alcove": [[0], [1]], "entries": entries}).encode()
    path.write_bytes(json.dumps(_header(table_key("A1", 1), body)).encode() + b"\n" + body + b"\n")
    assert DiskCache(tmp_path).load_table(a1, 1) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert path.read_text() == original


def test_schema_1_document_is_a_miss_and_overwritten(capsys, tmp_path, a2):
    """A document in the schema-1 format (integers as decimal strings) is recomputed."""
    argv = ["fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = _cached_file(tmp_path)
    current = path.read_text()
    table = fusion_table(a2, 2)

    def coords(w):
        return ",".join(str(c) for c in w)

    legacy = {
        "schema_version": 1,
        "cartan_type": "A2",
        "payload_kind": "fusion_table",
        "key": table_key("A2", 2),
        "payload": {
            "level": "2",
            "alcove": [coords(w) for w in table.alcove],
            "entries": [["|".join(coords(w) for w in t), str(c)]
                        for t, c in sorted(table.coeffs.items())],
        },
    }
    path.write_text(json.dumps(legacy, sort_keys=True, indent=1))
    assert DiskCache(tmp_path).load_table(a2, 2) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert path.read_text() == current


def test_schema_2_document_is_a_miss_and_overwritten(capsys, tmp_path, a2):
    """A one-line schema-2 document (digest of the sorted-key re-encoding) is recomputed."""
    argv = ["fusion", "A2", "--level", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = _cached_file(tmp_path)
    current = path.read_text()
    header, payload = _read(path)
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    legacy = {"schema_version": 2, "key": header["key"],
              "digest": hashlib.sha256(canonical).hexdigest(), "payload": payload}
    path.write_text(json.dumps(legacy))
    assert DiskCache(tmp_path).load_table(a2, 2) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert path.read_text() == current


def test_non_object_document_is_a_miss(tmp_path, a2):
    cache, path = _stored(tmp_path, a2, 1)
    path.write_text("[1, 2]")
    assert cache.load_table(a2, 1) is None


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaf_paths(child, (*path, key))]


@pytest.fixture(scope="module")
def stored_a2_level_2(tmp_path_factory, a2):
    cache, path = _stored(tmp_path_factory.mktemp("fuzz"), a2, 2)
    return cache, path, path.read_text(), fusion_table(a2, 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_truncated_or_mistyped_documents_are_misses(stored_a2_level_2, a2, data):
    """Cutting the file anywhere, or replacing any one JSON leaf, never raises or
    yields a table other than the one stored."""
    cache, path, text, table = stored_a2_level_2
    if data.draw(st.booleans(), label="truncate"):
        damaged = text[: data.draw(st.integers(0, len(text) - 1), label="offset")]
    else:
        doc = [json.loads(line) for line in text.splitlines()]  # [header, payload]
        *parents, last = data.draw(st.sampled_from(_leaf_paths(doc)), label="leaf")
        node = doc
        for key in parents:
            node = node[key]
        node[last] = data.draw(_JSON_VALUES, label="value")
        damaged = "".join(json.dumps(part) + "\n" for part in doc)
    path.write_text(damaged)
    loaded = cache.load_table(a2, 2)
    assert loaded is None or loaded == table

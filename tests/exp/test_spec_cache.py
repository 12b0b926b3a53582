"""The experiment-spec cache-key contract and the on-disk result
cache (``repro.exp.spec`` / ``repro.exp.cache``)."""

import dataclasses
import json

from repro.exp import (
    SCHEMA_VERSION,
    ExperimentSpec,
    ResultCache,
    canonical_json_bytes,
)


def run_noop():
    return {"value": 1}


def render_noop(result):
    return f"value = {result['value']}"


def make_spec(**overrides):
    fields = dict(
        exp_id="X1",
        title="synthetic",
        bench="bench_x1.py",
        run=run_noop,
        render=render_noop,
        params={"a": 1, "b": [1, 2]},
        cost=0.5,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def test_canonical_json_is_sorted_and_newline_terminated():
    blob = canonical_json_bytes({"b": 1, "a": {"z": 0, "y": None}})
    assert blob.endswith(b"\n")
    assert blob.index(b'"a"') < blob.index(b'"b"')
    assert blob.index(b'"y"') < blob.index(b'"z"')
    # Stable across calls, insensitive to insertion order.
    assert blob == canonical_json_bytes({"a": {"y": None, "z": 0}, "b": 1})


def test_cache_key_is_stable_and_version_sensitive():
    spec = make_spec()
    key = spec.cache_key()
    assert key == make_spec().cache_key()
    assert len(key) == 32
    int(key, 16)  # hex digest
    # Any identity-relevant field change produces a new key...
    assert make_spec(params={"a": 2, "b": [1, 2]}).cache_key() != key
    assert make_spec(version=2).cache_key() != key
    assert make_spec(exp_id="X2").cache_key() != key
    # ...while presentation-only fields do not.
    assert make_spec(title="renamed").cache_key() == key
    assert make_spec(caveat="different note").cache_key() == key
    assert make_spec(cost=9.0).cache_key() == key
    assert make_spec(check=lambda result: []).cache_key() == key


def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = make_spec()
    assert cache.lookup(spec) is None
    document = cache.store(spec, {"value": 1})
    assert document["experiment"] == "X1"
    assert document["schema"] == SCHEMA_VERSION
    assert document["cache_key"] == spec.cache_key()
    assert cache.lookup(spec) == document
    # The stored bytes are the canonical serialization.
    assert (tmp_path / "X1.json").read_bytes() == canonical_json_bytes(document)


def test_cache_misses_on_version_bump_and_corruption(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = make_spec()
    cache.store(spec, {"value": 1})
    # A spec version bump invalidates the committed result.
    bumped = dataclasses.replace(spec, version=2)
    assert cache.lookup(bumped) is None
    # Corrupt JSON degrades to a miss, not a crash.
    (tmp_path / "X1.json").write_text("{not json", encoding="utf-8")
    assert cache.lookup(spec) is None


def test_documents_are_json_round_trippable(tmp_path):
    cache = ResultCache(str(tmp_path))
    document = cache.store(make_spec(), {"value": 1})
    assert json.loads(canonical_json_bytes(document)) == document

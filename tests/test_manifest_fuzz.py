"""Byte-level fuzz of the store manifest decoder (DESIGN.md §9).

``parse_manifest`` is the one place ``manifest.json`` is parsed, and
everything that opens a store goes through it (``load_manifest`` and a
reader's parse-once-per-content memo both call it). Hypothesis mutates the
bytes of a small clean store's manifest — a digit replaced by another
digit (which keeps the JSON valid and moves a number), a byte replaced,
inserted or deleted, or the file truncated — and every consumer must
either work or raise a typed :class:`~repro.store.errors.StoreError`:
``load_manifest``, ``TraceStoreReader``, ``build_dataset`` in one pass
and as a strict two-shard plan (whose ``ShardError`` must wrap one); and
``verify_store`` must return a report, never raise. A ``QueryEngine``
answers every request — filtered ones, which prune on the partition
stats, included — with a status, whether it was started on the damaged
store or was warm when the damage landed, and a warm one serves again
once the clean manifest is back.
"""

from __future__ import annotations

import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import ParallelOptions, ShardError, build_dataset
from repro.serve import QueryEngine
from repro.store import (
    StoreError,
    StoreVerifyReport,
    TraceStoreReader,
    load_manifest,
    verify_store,
    write_store,
)
from tests.helpers import make_trace_samples

pytestmark = pytest.mark.faults

WINDOWS = 4
#: A filtered query: the engine prunes partitions on their manifest stats.
FILTERED = {"pop": ["ams1"], "country": ["NL"], "window": ["0-1"]}
#: Bytes that keep a mutation close to JSON: digits, number syntax and
#: structure. Half the replaced or inserted bytes come from here.
JSON_BYTES = b'0123456789-+.eE"{}[],: '
MUTATIONS = ("digit", "byte", "insert", "delete", "truncate")
#: Two shards run inline, failing fast: a shard's error is not quarantined.
SHARDED = ParallelOptions(shards=2, max_retries=0, strict=True)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A clean store; a copy whose manifest the fuzzer replaces; and a
    warm engine over a second copy."""
    root = tmp_path_factory.mktemp("manifest-fuzz")
    clean = root / "clean.store"
    write_store(
        clean,
        make_trace_samples(100, seed=29, windows=WINDOWS),
        band_windows=2,
    )
    fuzzed, served = root / "fuzzed.store", root / "served.store"
    shutil.copytree(clean, fuzzed)
    shutil.copytree(clean, served)
    engine = QueryEngine(served)
    status, _ = engine.handle("/v1/quantiles", {})
    assert status == 200
    return clean, fuzzed, engine


def _mutate(draw, manifest: bytes) -> bytes:
    kind = draw(st.sampled_from(MUTATIONS), label="kind")
    if kind == "truncate":
        return manifest[: draw(st.integers(0, len(manifest) - 1))]
    if kind == "digit":
        digits = [at for at, byte in enumerate(manifest) if 48 <= byte <= 57]
        at = draw(st.sampled_from(digits), label="at")
        value = draw(st.sampled_from(b"0123456789"), label="digit")
    else:
        at = draw(st.integers(0, len(manifest) - 1), label="at")
        value = draw(
            st.one_of(st.sampled_from(JSON_BYTES), st.integers(0, 255)),
            label="byte",
        )
    if kind == "delete":
        return manifest[:at] + manifest[at + 1 :]
    skip = 0 if kind == "insert" else 1
    return manifest[:at] + bytes((value,)) + manifest[at + skip :]


def _publish(store, data: bytes) -> None:
    """Replace ``store``'s manifest the way every writer does: rename."""
    temp = store / "manifest.json.tmp"
    temp.write_bytes(data)
    os.replace(temp, store / "manifest.json")


def _typed(call):
    """``call()``, or None when it raised a StoreError; anything else
    escapes and fails the test."""
    try:
        return call()
    except StoreError:
        return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_only_typed_errors_escape(stores, data):
    clean_store, fuzzed, warm = stores
    clean = (clean_store / "manifest.json").read_bytes()
    mutated = _mutate(data.draw, clean)
    _publish(fuzzed, mutated)

    manifest = _typed(lambda: load_manifest(fuzzed))
    reader = _typed(lambda: TraceStoreReader(fuzzed))
    assert (manifest is None) == (reader is None)
    _typed(lambda: build_dataset(fuzzed, study_windows=WINDOWS))
    try:
        _typed(
            lambda: build_dataset(fuzzed, study_windows=WINDOWS, options=SHARDED)
        )
    except ShardError as error:
        assert isinstance(error.cause, StoreError), error
    report = verify_store(fuzzed)
    assert isinstance(report, StoreVerifyReport)
    if manifest is None:
        assert not report.ok

    fresh = _typed(lambda: QueryEngine(fuzzed))
    assert (fresh is None) == (manifest is None)
    if fresh is not None:
        assert fresh.handle("/v1/quantiles", {})[0] in (200, 503)
        assert fresh.handle("/v1/quantiles", FILTERED)[0] in (200, 503)
        assert fresh.handle("/v1/health", {})[0] == 200

    _publish(warm.path, mutated)
    try:
        assert warm.handle("/v1/quantiles", {})[0] in (200, 503)
        _, health = warm.handle("/v1/health", {})
        if manifest is None:
            assert health["status"] == "degraded"
    finally:
        _publish(warm.path, clean)
    assert warm.handle("/v1/quantiles", {})[0] == 200

"""Store compaction (``repro.store.compact``): exactness and crash safety.

The contract under test (DESIGN.md §13): compacting a store that a
long-running stream fragmented into many small partitions must (a) leave
the full ``(seq, sample)`` scan stream — and therefore every derived
analysis — byte-identical, (b) CRC re-verify the rewritten bytes *from
disk* before the manifest swap publishes them, (c) never leave the store
unreadable whatever point it dies at (generation data file + manifest
written last, atomically), and (d) keep the store appendable afterwards.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, activate_metrics
from repro.pipeline import build_dataset
from repro.store import (
    CorruptBlockError,
    TraceStoreReader,
    append_to_store,
    compact_store,
    verify_store,
    write_store,
)
from repro.store.writer import _next_generation_name

from tests.helpers import make_trace_samples

pytestmark = pytest.mark.store

STUDY_WINDOWS = 8
APPENDS = 11
CHUNK = 50


@pytest.fixture(scope="module")
def samples():
    return make_trace_samples(
        (APPENDS + 1) * CHUNK, seed=59, windows=STUDY_WINDOWS
    )


@pytest.fixture()
def streamed_store(samples, tmp_path):
    """A store fragmented the way streaming ingest leaves it: one initial
    write plus many small appends, each sealing its own partitions."""
    path = tmp_path / "streamed.store"
    write_store(path, samples[:CHUNK], band_windows=1)
    for index in range(1, APPENDS + 1):
        append_to_store(
            path,
            samples[index * CHUNK : (index + 1) * CHUNK],
            band_windows=1,
        )
    return path


#: The data-fact counter namespaces (RunManifest.sample_accounting).
#: ``store.*`` read counters are execution facts — fewer partitions mean
#: fewer frames verified and bytes read, which is the point of compacting.
_DATA_PREFIXES = ("pipeline.", "methodology.", "core.", "io.")


def _dataset_facts(store_path):
    dataset = build_dataset(store_path, study_windows=STUDY_WINDOWS)
    return (
        dataset.rows,
        [key for key, _ in dataset.store.items()],
        {
            name: value
            for name, value in dataset.metrics.counters.items()
            if name.startswith(_DATA_PREFIXES)
        },
        dataset.metrics.gauges,
    )


class TestCompaction:
    def test_partitions_collapse_to_one_per_band(self, streamed_store):
        before = len(TraceStoreReader(streamed_store).partitions)
        report = compact_store(streamed_store)
        after = TraceStoreReader(streamed_store)
        assert not report.skipped
        assert report.partitions_before == before
        assert report.partitions_after == len(after.partitions) < before
        # One partition per (PoP, band) key, like a single writer pass.
        keys = [(p["pop"], p["band"]) for p in after.partitions]
        assert len(keys) == len(set(keys))

    def test_scan_stream_is_byte_identical(self, streamed_store):
        before = list(TraceStoreReader(streamed_store).scan_pairs())
        compact_store(streamed_store)
        assert list(TraceStoreReader(streamed_store).scan_pairs()) == before

    def test_analysis_is_byte_identical(self, streamed_store):
        before = _dataset_facts(streamed_store)
        compact_store(streamed_store)
        assert _dataset_facts(streamed_store) == before

    def test_store_verifies_clean_after_compaction(self, streamed_store):
        compact_store(streamed_store)
        report = verify_store(streamed_store)
        assert report.ok

    def test_new_generation_file_replaces_old(self, streamed_store):
        assert (streamed_store / "data.bin").exists()
        report = compact_store(streamed_store)
        assert report.data_file == "data-g1.bin"
        assert (streamed_store / "data-g1.bin").exists()
        assert not (streamed_store / "data.bin").exists()
        manifest = json.loads((streamed_store / "manifest.json").read_text())
        assert manifest["data_file"] == "data-g1.bin"

    def test_append_still_works_after_compaction(
        self, streamed_store, samples
    ):
        compact_store(streamed_store)
        extra = make_trace_samples(40, seed=61, windows=STUDY_WINDOWS)
        append_to_store(streamed_store, extra, band_windows=1)
        scanned = [
            sample
            for _, sample in TraceStoreReader(streamed_store).scan_pairs()
        ]
        assert scanned == samples + extra
        # The append lands in the live generation file, not a new one.
        manifest = json.loads((streamed_store / "manifest.json").read_text())
        assert manifest["data_file"] == "data-g1.bin"

    def test_already_compact_store_is_skipped(self, streamed_store):
        compact_store(streamed_store)
        manifest_bytes = (streamed_store / "manifest.json").read_bytes()
        report = compact_store(streamed_store)
        assert report.skipped
        assert report.partitions_before == report.partitions_after
        # Skipping rewrites nothing: the manifest is untouched.
        assert (streamed_store / "manifest.json").read_bytes() == manifest_bytes

    def test_the_skip_is_decided_from_the_manifest(
        self, streamed_store, monkeypatch
    ):
        compact_store(streamed_store)

        def no_scan(*args, **kwargs):
            raise AssertionError("an already-compact store was scanned")

        monkeypatch.setattr(TraceStoreReader, "scan_pairs", no_scan)
        report = compact_store(streamed_store)
        assert report.skipped
        assert report.rows == TraceStoreReader(streamed_store).row_count

    def test_rebanding_widens_partitions(self, streamed_store):
        first = compact_store(streamed_store)
        rebanded = compact_store(streamed_store, band_windows=8)
        assert not rebanded.skipped
        assert rebanded.partitions_after < first.partitions_after
        assert rebanded.data_file == "data-g2.bin"
        scanned = TraceStoreReader(streamed_store)
        assert scanned.manifest["band_windows"] == 8
        assert verify_store(streamed_store).ok

    def test_band_windows_validated(self, streamed_store):
        with pytest.raises(ValueError, match="band_windows"):
            compact_store(streamed_store, band_windows=0)

    def test_generation_names_advance(self):
        assert _next_generation_name("data.bin") == "data-g1.bin"
        assert _next_generation_name("data-g1.bin") == "data-g2.bin"
        assert _next_generation_name("data-g9.bin") == "data-g10.bin"

    def test_metrics_counters(self, streamed_store):
        registry = MetricsRegistry()
        report = compact_store(streamed_store, metrics=registry)
        assert registry.counter("store.compact.runs") == 1
        assert (
            registry.counter("store.compact.partitions_in")
            == report.partitions_before
        )
        assert (
            registry.counter("store.compact.partitions_out")
            == report.partitions_after
        )
        assert registry.counter("store.compact.rows") == report.rows
        compact_store(streamed_store, metrics=registry)
        assert registry.counter("store.compact.skipped") == 1


class TestCrashSafety:
    @pytest.mark.faults
    @pytest.mark.parametrize("publish", ["compact", "write"])
    def test_torn_write_caught_before_manifest_swap(
        self, streamed_store, samples, monkeypatch, publish
    ):
        # Corrupt the new generation's bytes as they hit disk: the
        # re-verify pass must refuse to publish them, and the store must
        # still read from the old generation as if nothing happened.
        import repro.store.writer as writer_mod

        real_write = writer_mod.atomic_write_bytes
        before = list(TraceStoreReader(streamed_store).scan_pairs())

        def torn_write(path, payload):
            if path.name.startswith("data-g"):
                payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
            return real_write(path, payload)

        monkeypatch.setattr(writer_mod, "atomic_write_bytes", torn_write)
        with pytest.raises(CorruptBlockError, match="re-verify"):
            if publish == "compact":
                compact_store(streamed_store)
            else:
                write_store(streamed_store, samples, band_windows=1)
        monkeypatch.undo()

        manifest = json.loads((streamed_store / "manifest.json").read_text())
        assert manifest.get("data_file", "data.bin") == "data.bin"
        assert list(TraceStoreReader(streamed_store).scan_pairs()) == before
        assert verify_store(streamed_store).ok
        # The next compaction succeeds and sweeps the orphan generation.
        report = compact_store(streamed_store)
        assert not report.skipped
        assert not (streamed_store / "data.bin").exists()
        data_files = {p.name for p in streamed_store.glob("data*.bin")}
        assert data_files == {report.data_file}

    def test_compaction_rereads_with_crc_checks(self, streamed_store):
        # A corrupt source frame must fail the compaction read pass, not
        # silently propagate into the rewritten store.
        manifest = json.loads((streamed_store / "manifest.json").read_text())
        partition = manifest["partitions"][0]
        data_path = streamed_store / "data.bin"
        payload = bytearray(data_path.read_bytes())
        payload[partition["offset"]] ^= 0xFF
        data_path.write_bytes(bytes(payload))
        with pytest.raises(CorruptBlockError) as excinfo:
            compact_store(streamed_store)
        error = excinfo.value
        assert (error.partition_id, error.offset, error.length) == (
            partition["id"], partition["offset"], partition["length"]
        )
        assert "crc32 mismatch" in error.detail


class TestCompactStoreCLI:
    def test_compact_then_skip(self, streamed_store, capsys):
        from repro.cli import main

        assert main(["compact-store", str(streamed_store)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        assert "rows re-verified" in out
        assert main(["compact-store", str(streamed_store)]) == 0
        assert "already compact" in capsys.readouterr().out

    def test_cli_reband(self, streamed_store, capsys):
        from repro.cli import main

        code = main(
            ["compact-store", str(streamed_store), "--band-windows", "8"]
        )
        assert code == 0
        reader = TraceStoreReader(streamed_store)
        assert reader.manifest["band_windows"] == 8

    def test_cli_metrics_manifest(self, streamed_store, tmp_path, capsys):
        from repro.cli import main

        manifest_path = tmp_path / "m.json"
        code = main(
            [
                "compact-store",
                str(streamed_store),
                "--metrics-out", str(manifest_path),
            ]
        )
        assert code == 0
        payload = json.loads(manifest_path.read_text())
        assert payload["counters"]["store.compact.runs"] == 1
        assert payload["command"] == "compact-store"

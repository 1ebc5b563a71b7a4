"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure4_flags(self):
        args = build_parser().parse_args(["figure4", "--delayed-ack"])
        assert args.command == "figure4"
        assert args.delayed_ack

    def test_snapshot_defaults(self):
        args = build_parser().parse_args(["snapshot"])
        assert args.days == 1
        assert args.networks_per_metro == 3

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_cc_flag(self):
        args = build_parser().parse_args(["figure4", "--cc", "bbr"])
        assert args.congestion_control == "bbr"
        args = build_parser().parse_args(["sweep", "--cc", "cubic"])
        assert args.congestion_control == "cubic"

    def test_cc_defaults_to_reno(self):
        for command in ("figure4", "sweep"):
            args = build_parser().parse_args([command])
            assert args.congestion_control == "reno"


#: Every subcommand's parsed defaults (with its positionals filled in), in
#: parse order: the ``config`` section a run manifest records.
OBS = {"metrics_out": None, "profile": False}
SHARDING = {
    "workers": 1, "shards": None, "workers_addr": None, "max_retries": 2,
    "retry_backoff": 0.05, "strict": False,
}
PARSED_DEFAULTS = {
    ("figure4",): {
        "delayed_ack": False, "trace": False, "congestion_control": "reno", **OBS,
    },
    ("sweep",): {"dense": False, "congestion_control": "reno", **OBS},
    ("snapshot",): {
        "seed": 42, "days": 1, "rate": 10.0, "networks_per_metro": 3, **OBS,
    },
    ("routing",): {
        "seed": 42, "days": 2, "rate": 60.0, "trace": None, **SHARDING, **OBS,
    },
    ("trace", "out.jsonl"): {
        "output": "out.jsonl", "seed": 42, "days": 1, "rate": 10.0,
        "networks_per_metro": 1, **OBS,
    },
    ("analyze", "t.store"): {
        "trace": "t.store", "windows": 96, **SHARDING, **OBS,
    },
    ("ingest", "t.jsonl"): {
        "trace": "t.jsonl", "windows": 96, "lateness": None, "out_store": None,
        "band_windows": None, **OBS,
    },
    ("convert", "a.jsonl", "b.store"): {
        "src": "a.jsonl", "dst": "b.store", "band_windows": None, **OBS,
    },
    ("verify-store", "s.store"): {"store": "s.store", **OBS},
    ("serve", "s.store"): {
        "store": "s.store", "host": "127.0.0.1", "port": 8321,
        "cache_capacity": 64, "windows": None, "max_requests": None, **OBS,
    },
    ("worker",): {"listen": "127.0.0.1:0", "max_tasks": None, **OBS},
    ("compact-store", "s.store"): {"store": "s.store", "band_windows": None, **OBS},
    ("calibrate",): {"seed": 101, "rate": 9.0, **OBS},
}


class TestParsedDefaults:
    def test_every_subcommand_is_pinned(self):
        import argparse

        (commands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(commands.choices) == [argv[0] for argv in PARSED_DEFAULTS]

    @pytest.mark.parametrize("argv", list(PARSED_DEFAULTS), ids=lambda a: a[0])
    def test_parsed_defaults(self, argv):
        """Values, types and order: a manifest's ``config`` is this dict."""
        parsed = list(vars(build_parser().parse_args(list(argv))).items())
        expected = [("command", argv[0]), *PARSED_DEFAULTS[argv].items()]
        assert parsed == expected
        assert [type(value) for _, value in parsed] == [
            type(value) for _, value in expected
        ]


class TestCommands:
    def test_figure4_runs(self, capsys):
        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "MinRTT: 60.0 ms" in out
        assert "session HDratio: 1.0" in out

    def test_figure4_delayed_ack_runs(self, capsys):
        assert main(["figure4", "--delayed-ack"]) == 0
        assert "session HDratio" in capsys.readouterr().out

    def test_sweep_runs_coarse(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "overestimates: 0" in out

    def test_figure4_with_cc_runs(self, capsys):
        assert main(["figure4", "--cc", "bbr"]) == 0
        out = capsys.readouterr().out
        assert "congestion control: bbr" in out
        assert "session HDratio" in out

    def test_sweep_rejects_unknown_cc(self, capsys):
        with pytest.raises(ValueError, match="unknown congestion control"):
            main(["sweep", "--cc", "vegas"])

    def test_snapshot_runs_small(self, capsys):
        code = main(
            ["snapshot", "--rate", "2", "--days", "1", "--networks-per-metro", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "global MinRTT p50" in out

    def test_routing_runs_small(self, capsys):
        code = main(["routing", "--rate", "12", "--days", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "within 3 ms of optimal" in out


class TestNewSubcommands:
    def test_trace_and_analyze_parsers(self):
        args = build_parser().parse_args(["trace", "out.jsonl", "--rate", "5"])
        assert args.command == "trace"
        assert args.output == "out.jsonl"
        assert args.rate == 5.0
        args = build_parser().parse_args(["analyze", "out.jsonl", "--windows", "48"])
        assert args.windows == 48

    def test_calibrate_parser(self):
        args = build_parser().parse_args(["calibrate", "--rate", "3"])
        assert args.command == "calibrate"
        assert args.rate == 3.0

    def test_figure4_trace_flag(self, capsys):
        assert main(["figure4", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "server" in out and "client" in out  # sequence diagram rails
        assert "data 0.." in out

    def test_trace_analyze_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl.gz")
        assert main(["trace", path, "--rate", "1", "--days", "1"]) == 0
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "global MinRTT p50" in out


class TestShardsValidation:
    """The sharding flags: bad values are usage errors, they need a store
    to shard, and nothing but ``--workers`` / ``--workers-addr`` decides
    where the shards run. Other option values a command would reject are
    usage errors too."""

    # ``flags`` is the whole command line after ``repro``; the parameter
    # keeps its name so the ids of the value-check cases stay put.
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["analyze", "t.jsonl", "--workers", "0"], "workers must be >= 1"),
            (
                ["analyze", "t.jsonl", "--workers", "2", "--shards", "0"],
                "shards must be >= 1",
            ),
            (
                ["analyze", "t.jsonl", "--workers", "2", "--max-retries", "-1"],
                "max_retries must be >= 0",
            ),
            (
                ["analyze", "t.jsonl", "--retry-backoff", "-1"],
                "retry_backoff must be >= 0",
            ),
            # An infinite backoff overflowed time.sleep on the retry that
            # would have recovered the shard; nan slept not at all.
            (
                ["analyze", "t.jsonl", "--retry-backoff", "inf"],
                "retry_backoff must be >= 0 and finite",
            ),
            (
                ["analyze", "t.jsonl", "--retry-backoff", "nan"],
                "retry_backoff must be >= 0 and finite",
            ),
            (
                ["analyze", "t.jsonl", "--workers-addr", "nonsense"],
                "'nonsense' is not host:port",
            ),
            (
                ["analyze", "t.jsonl", "--workers-addr", "h:1,h:x"],
                "'h:x' has a non-numeric port",
            ),
            # A sharded plan reads a store: JSONL is refused before it is
            # opened (these paths do not even exist), naming the way out.
            (["analyze", "t.jsonl.gz", "--workers", "4"], "repro convert"),
            (["routing", "--trace", "t.jsonl", "--shards", "4"], "repro convert"),
            (
                ["analyze", "t.jsonl", "--workers-addr", "127.0.0.1:9"],
                "repro convert",
            ),
            (["analyze", "t.jsonl", "--strict"], "sharding flags need a store"),
        ],
    )
    def test_bad_parallel_values_are_usage_errors(self, flags, message, capsys):
        """Regression: these escaped as ValueError tracebacks out of
        ParallelOptions.__post_init__ (or, for JSONL, ran a byte-range or
        line-block plan) instead of argparse usage errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(flags)
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("repro: error: ") and message in last

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "s.store", "--windows", "0"], "--windows must be >= 1"),
            (
                ["serve", "s.store", "--cache-capacity", "0"],
                "--cache-capacity must be >= 1",
            ),
            (["analyze", "t.jsonl", "--windows", "0"], "--windows must be >= 1"),
            (["ingest", "t.jsonl", "--windows", "0"], "--windows must be >= 1"),
            (
                ["convert", "t.jsonl", "t.store", "--band-windows", "0"],
                "--band-windows must be >= 1",
            ),
            (
                ["compact-store", "t.store", "--band-windows", "0"],
                "--band-windows must be >= 1",
            ),
            (["ingest", "t.jsonl", "--lateness", "-1"], "--lateness must be >= 0"),
            (["ingest", "t.jsonl", "--lateness", "nan"], "--lateness must be >= 0"),
            # --band-windows where no store is written was silently ignored.
            (["ingest", "t.jsonl", "--band-windows", "2"], "writes none"),
            (
                ["convert", "t.store", "t.jsonl", "--band-windows", "2"],
                "writes none",
            ),
            # The generator flags: a ValueError traceback, an empty trace,
            # an all-n/a report with exit 0, an OverflowError, a TypeError.
            (["snapshot", "--days", "0"], "--days must be >= 1"),
            (["routing", "--days", "0"], "--days must be >= 1"),
            (["trace", "t.jsonl", "--days", "0"], "--days must be >= 1"),
            (
                ["snapshot", "--networks-per-metro", "0"],
                "--networks-per-metro must be >= 1",
            ),
            (["snapshot", "--rate", "-5"], "--rate must be finite and > 0"),
            (["snapshot", "--rate", "nan"], "--rate must be finite and > 0"),
            (["routing", "--rate", "inf"], "--rate must be finite and > 0"),
            (["calibrate", "--rate", "0"], "--rate must be finite and > 0"),
            # The daemons' lifetimes and ports: a ValueError traceback, and
            # an OverflowError from bind().
            (["worker", "--max-tasks", "0"], "--max-tasks must be >= 1"),
            (
                ["serve", "s.store", "--max-requests", "0"],
                "--max-requests must be >= 1",
            ),
            (["serve", "s.store", "--port", "65536"], "--port must be in 0-65535"),
            (["serve", "s.store", "--port", "-1"], "--port must be in 0-65535"),
            (
                ["worker", "--listen", "127.0.0.1:65536"],
                "--listen must be HOST:PORT with a port in 0-65535",
            ),
        ],
    )
    def test_bad_option_values_are_usage_errors(self, argv, message, capsys):
        """Regression: these escaped as tracebacks from the command, ran
        to an empty or all-n/a result, or were ignored, instead of argparse
        usage errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("repro: error: ") and message in last

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "t.jsonl", "--engine", "row"],
            ["routing", "--engine", "batch"],
            ["snapshot", "--engine", "row"],
            ["serve", "s.store", "--engine", "row"],
        ],
    )
    def test_engine_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "t.jsonl", "--executor", "serial"],
            ["routing", "--workers", "2", "--executor", "process"],
            ["snapshot", "--executor", "thread"],
            ["analyze", "t.jsonl", "--format", "jsonl"],
            ["routing", "--trace", "t.store", "--format", "store"],
        ],
    )
    def test_executor_and_format_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2"],
            ["--shards", "4"],
            ["--workers-addr", "127.0.0.1:9"],
            ["--max-retries", "0"],
            ["--retry-backoff", "0"],
            ["--strict"],
        ],
    )
    def test_snapshot_has_no_sharding_flags(self, flags, capsys):
        """``snapshot`` only ever generates a stream, which folds in one
        pass: none of the six flags could do anything but slow it down."""
        with pytest.raises(SystemExit) as excinfo:
            main(["snapshot", "--rate", "1"] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_routing_sharding_flags_need_a_trace(self, tmp_path, capsys):
        """A generated stream has no bytes on disk for a shard task to
        name: a usage error, not a silent one-pass run."""
        flag_sets = (["--workers", "2"], ["--shards", "4"], ["--strict"])
        for flags in flag_sets:
            with pytest.raises(SystemExit) as excinfo:
                main(["routing", "--rate", "8", "--days", "1"] + flags)
            assert excinfo.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last.startswith("repro: error: ")
            assert "sharding flags need a store" in last
        # With a trace the same flags run, to the one-pass report.
        store = tmp_path / "t.store"
        assert main(["trace", str(store), "--rate", "2", "--days", "1"]) == 0
        capsys.readouterr()
        assert main(["routing", "--trace", str(store)]) == 0
        one_pass = capsys.readouterr().out
        assert "within 3 ms of optimal" in one_pass
        for flags in flag_sets:
            assert main(["routing", "--trace", str(store)] + flags) == 0
            assert capsys.readouterr().out == one_pass

    def test_shards_with_workers_accepted(self, tmp_path, capsys):
        """``--shards`` alone is the N-shard plan run inline in plan order
        (the determinism baseline): same report as the one-pass run, and
        the manifest says what ran."""
        store = tmp_path / "t.store"
        assert main(["trace", str(store), "--rate", "1", "--days", "1"]) == 0
        capsys.readouterr()
        analyze = ["analyze", str(store)]
        assert main(analyze) == 0
        one_pass = capsys.readouterr().out
        manifest_path = tmp_path / "m.json"
        code = main(
            analyze + ["--shards", "4", "--metrics-out", str(manifest_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "global MinRTT p50" in out
        assert out.splitlines()[:-1] == one_pass.splitlines()
        plan = json.loads(manifest_path.read_text())["shard_plan"]
        assert (plan["workers"], plan["shards"], plan["executor"]) == (
            1, 4, "serial",
        )


SMOKE_ARGS = {
    "figure4": ["figure4"],
    "sweep": ["sweep"],
    "snapshot": ["snapshot", "--rate", "1", "--networks-per-metro", "1"],
    "routing": ["routing", "--rate", "8", "--days", "1"],
}


class TestObservabilityOptions:
    """Satellite: --metrics-out/--profile smoke tests on all four
    subcommands — manifest file exists, is valid JSON, and reports stable
    stage names."""

    @pytest.mark.parametrize("command", sorted(SMOKE_ARGS))
    def test_metrics_out_writes_valid_manifest(self, command, tmp_path, capsys):
        out = tmp_path / f"{command}.json"
        assert main(SMOKE_ARGS[command] + ["--metrics-out", str(out)]) == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["format_version"] == 1
        assert payload["command"] == command
        assert payload["exit_code"] == 0
        assert payload["stages"][0]["stage"] == f"cli.{command}"
        assert payload["counters"], "a run must count something"
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(SMOKE_ARGS))
    def test_profile_prints_stage_table(self, command, tmp_path, capsys):
        assert main(SMOKE_ARGS[command] + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile" in out
        assert f"cli.{command}" in out

    def test_snapshot_manifest_stage_names_are_stable(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(SMOKE_ARGS["snapshot"] + ["--metrics-out", str(out)]) == 0
        stages = [s["stage"] for s in json.loads(out.read_text())["stages"]]
        assert stages[0] == "cli.snapshot"
        assert "cli.snapshot.pipeline.ingest" in stages
        assert "cli.snapshot.pipeline.fig6" in stages
        capsys.readouterr()

    def test_trace_manifest_counts_rows_written(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        assert main(
            ["trace", str(trace), "--rate", "1", "--metrics-out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        written = payload["counters"]["io.rows_written"]
        assert written == sum(1 for _ in trace.open())
        capsys.readouterr()

    def test_analyze_zero_session_trace_renders_not_available(
        self, tmp_path, capsys
    ):
        """Satellite: zero-session aggregations render n/a, not a crash."""
        from repro.pipeline.io import write_samples

        empty = tmp_path / "empty.jsonl"
        write_samples(empty, [])
        assert main(["analyze", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out


class TestStoreCli:
    """`repro convert` and the rule that a trace's format follows its path."""

    def test_convert_parser(self):
        args = build_parser().parse_args(["convert", "a.jsonl", "b.store"])
        assert args.command == "convert"
        assert args.src == "a.jsonl"
        assert args.dst == "b.store"
        assert args.band_windows is None
        args = build_parser().parse_args(
            ["convert", "a.jsonl", "b.store", "--band-windows", "2"]
        )
        assert args.band_windows == 2
        # Block compression is not a knob: the flag is gone from both
        # subcommands that carried it.
        for argv in (
            ["convert", "a.jsonl", "b.store", "--no-compress"],
            ["compact-store", "b.store", "--no-compress"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_format_option_parsers(self):
        """No parser carries a format: it is read off the path."""
        parser = build_parser()
        for argv in (
            ["trace", "t.store"],
            ["analyze", "t.jsonl"],
            ["routing", "--trace", "t.store"],
        ):
            assert not hasattr(parser.parse_args(argv), "trace_format")
        assert parser.parse_args(["routing", "--trace", "t.store"]).trace == (
            "t.store"
        )

    def test_format_mismatch_errors(self, tmp_path, capsys):
        """A format that disagrees with the path cannot even be spelled,
        and nothing is written."""
        out = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(out), "--format", "store"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format store" in capsys.readouterr().err
        assert not out.exists()

    def test_format_without_trace_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["routing", "--format", "store"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format store" in capsys.readouterr().err

    def test_trace_writes_store_directly(self, tmp_path, capsys):
        from repro.store import is_store_path

        path = tmp_path / "direct.store"
        assert main(["trace", str(path), "--rate", "1", "--days", "1"]) == 0
        assert is_store_path(path)
        assert "(store)" in capsys.readouterr().out

    def test_convert_then_analyze_matches_jsonl(self, tmp_path, capsys):
        """CLI acceptance: analyze output (modulo the echoed path) is
        identical for the JSONL trace and its store conversion, serially
        and with ``--workers 4``."""
        jsonl = tmp_path / "t.jsonl"
        store = tmp_path / "t.store"
        assert main(["trace", str(jsonl), "--rate", "2", "--days", "1"]) == 0
        assert main(["convert", str(jsonl), str(store)]) == 0
        out = capsys.readouterr().out
        assert "converted" in out and "(jsonl) ->" in out and "(store)" in out

        def analyze(path, *extra):
            assert main(["analyze", str(path), *extra]) == 0
            return capsys.readouterr().out.splitlines()[1:]

        jsonl_report = analyze(jsonl)
        assert analyze(store) == jsonl_report
        assert analyze(store, "--workers", "4") == jsonl_report

    def test_convert_round_trips_back_to_jsonl(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        store = tmp_path / "t.store"
        back = tmp_path / "back.jsonl"
        assert main(["trace", str(jsonl), "--rate", "1", "--days", "1"]) == 0
        assert main(["convert", str(jsonl), str(store)]) == 0
        assert main(["convert", str(store), str(back)]) == 0
        capsys.readouterr()
        assert back.read_bytes() == jsonl.read_bytes()

    def test_routing_from_store_trace(self, tmp_path, capsys):
        store = tmp_path / "t.store"
        assert main(["trace", str(store), "--rate", "8", "--days", "1"]) == 0
        assert main(["routing", "--trace", str(store)]) == 0
        assert "within 3 ms of optimal" in capsys.readouterr().out

    def test_convert_metrics_manifest_counts_store_writes(
        self, tmp_path, capsys
    ):
        jsonl = tmp_path / "t.jsonl"
        store = tmp_path / "t.store"
        manifest = tmp_path / "m.json"
        assert main(["trace", str(jsonl), "--rate", "1", "--days", "1"]) == 0
        assert main(
            ["convert", str(jsonl), str(store), "--metrics-out", str(manifest)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(manifest.read_text())
        assert payload["command"] == "convert"
        assert payload["counters"]["store.rows.written"] > 0
        assert payload["counters"]["store.partitions.written"] > 0


class TestCounterEqualityAcceptance:
    """Acceptance: `repro analyze t.store --workers 4 --metrics-out m.json`
    produces a manifest whose counters are byte-identical to the
    `--workers 1` run."""

    def test_workers4_manifest_counters_equal_workers1(self, tmp_path, capsys):
        store = tmp_path / "t.store"
        assert main(["trace", str(store), "--rate", "1", "--days", "1"]) == 0
        base = ["analyze", str(store)]
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(
            base + ["--workers", "1", "--metrics-out", str(serial_out)]
        ) == 0
        assert main(
            base + ["--workers", "4", "--metrics-out", str(parallel_out)]
        ) == 0
        capsys.readouterr()
        serial = json.loads(serial_out.read_text())
        parallel = json.loads(parallel_out.read_text())
        assert json.dumps(parallel["counters"], sort_keys=True) == json.dumps(
            serial["counters"], sort_keys=True
        )
        assert json.dumps(parallel["gauges"], sort_keys=True) == json.dumps(
            serial["gauges"], sort_keys=True
        )
        # The execution facts do differ: the shard plans disagree.
        assert serial["shard_plan"]["workers"] == 1
        assert parallel["shard_plan"]["workers"] == 4
        # ... and say what ran, worked out from --workers; no option of
        # that name (nor a trace format) is left to echo in the config.
        assert serial["shard_plan"]["executor"] == "serial"
        assert parallel["shard_plan"]["executor"] == "process"
        for manifest in (serial, parallel):
            assert not {"executor", "trace_format"} & set(manifest["config"])


class TestIngestCli:
    """`repro ingest`: streaming windows from a saved trace or stdin."""

    def test_ingest_parser(self):
        args = build_parser().parse_args(
            ["ingest", "t.jsonl", "--windows", "8", "--lateness", "900",
             "--out", "sealed.store"]
        )
        assert args.command == "ingest"
        assert args.trace == "t.jsonl"
        assert args.windows == 8
        assert args.lateness == 900.0
        assert args.out_store == "sealed.store"
        args = build_parser().parse_args(["ingest", "-"])
        assert args.trace == "-"
        assert args.lateness is None
        assert args.out_store is None

    def test_ingest_trace_with_store_and_manifest(self, tmp_path, capsys):
        from repro.pipeline.io import write_samples

        from tests.helpers import make_trace_samples

        jsonl = tmp_path / "t.jsonl"
        sealed = tmp_path / "sealed.store"
        manifest_path = tmp_path / "manifest.json"
        samples = sorted(
            make_trace_samples(400, seed=67, windows=8),
            key=lambda s: s.end_time,
        )
        write_samples(jsonl, samples)
        assert main(
            ["ingest", str(jsonl), "--windows", "8",
             "--out", str(sealed), "--metrics-out", str(manifest_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "sealed across" in out
        assert f"appended to {sealed}" in out
        manifest = json.loads(manifest_path.read_text())
        streaming = manifest["streaming"]
        assert streaming["windows_sealed"] > 0
        assert streaming["samples_sealed"] > 0
        assert manifest["counters"]["stream.windows.sealed"] == streaming[
            "windows_sealed"
        ]
        # The sealed store replays: a batch analyze over it succeeds.
        assert main(["analyze", str(sealed), "--windows", "8"]) == 0
        assert "sessions loaded" in capsys.readouterr().out

    def test_ingest_stdin(self, tmp_path, capsys, monkeypatch):
        import io as stdlib_io

        from repro.pipeline.io import sample_to_dict

        from tests.helpers import make_trace_samples

        samples = sorted(
            make_trace_samples(40, seed=61, windows=2),
            key=lambda s: s.end_time,
        )
        lines = "".join(
            json.dumps(sample_to_dict(sample)) + "\n" for sample in samples
        )
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(lines))
        assert main(["ingest", "-", "--windows", "2"]) == 0
        out = capsys.readouterr().out
        assert "stdin" in out
        assert "40 samples offered" in out

    def test_ingest_sealed_store_matches_batch_counters(
        self, tmp_path, capsys
    ):
        """CLI acceptance for the replay invariant: the streaming manifest's
        data-fact counters equal a batch analyze of the sealed store."""
        from repro.pipeline.io import write_samples

        from tests.helpers import make_trace_samples

        jsonl = tmp_path / "t.jsonl"
        sealed = tmp_path / "sealed.store"
        stream_manifest = tmp_path / "stream.json"
        batch_manifest = tmp_path / "batch.json"
        samples = sorted(
            make_trace_samples(400, seed=71, windows=8),
            key=lambda s: s.end_time,
        )
        write_samples(jsonl, samples)
        assert main(
            ["ingest", str(jsonl), "--windows", "8", "--out", str(sealed),
             "--metrics-out", str(stream_manifest)]
        ) == 0
        assert main(
            ["analyze", str(sealed), "--windows", "8",
             "--metrics-out", str(batch_manifest)]
        ) == 0
        capsys.readouterr()
        stream = json.loads(stream_manifest.read_text())
        batch = json.loads(batch_manifest.read_text())
        prefixes = ("pipeline.", "methodology.", "core.")

        def data_facts(manifest):
            return {
                name: value
                for name, value in manifest["counters"].items()
                if name.startswith(prefixes)
            }

        assert data_facts(stream) == data_facts(batch)
        assert stream["gauges"] == batch["gauges"]
        assert batch["streaming"] == {}
        # One analysis path: the invocation's config has no engine to record.
        assert "engine" not in batch["config"]

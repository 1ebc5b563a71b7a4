"""Documentation consistency checks.

Docs rot silently; these tests pin the load-bearing cross-references:
every benchmark DESIGN.md's experiment index names must exist, every
example README names must exist, and the README's module table must match
the actual package layout.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_experiment_index_benchmarks_exist(self):
        design = read("DESIGN.md")
        referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
        assert referenced, "DESIGN.md lists no benchmark targets"
        for name in referenced:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_inventory_modules_exist(self):
        design = read("DESIGN.md")
        for module in re.findall(r"^\s{4}(\w+\.py)\s", design, re.MULTILINE):
            matches = list((ROOT / "src" / "repro").rglob(module))
            assert matches, f"DESIGN.md lists missing module {module}"

    def test_serving_section_names_the_carry_over_fallbacks(self):
        """§12 states when a cold query after a generation change extends
        a carried result and when it merges in full: every fallback the
        engine takes is named there, with the counters that tell them
        apart and the bound on what carried results hold."""
        design = read("DESIGN.md")
        section = design[design.index("## 12.") : design.index("## 13.")]
        for phrase in (
            "append-only",
            "rewrite",
            "compaction",
            "window size",
            "out-of-order",
            "evicted",
            "StoreError",
            "serve.merges.extended",
            "serve.merges.full",
            "Memory bound",
        ):
            assert phrase in " ".join(section.split()), phrase

    def test_serving_section_states_the_transport_contract(self):
        """§12 says what the transport accepts and rejects, its limits,
        and why a memoized body keeps byte identity."""
        design = read("DESIGN.md")
        section = " ".join(design[design.index("## 12.") : design.index("## 13.")].split())
        for phrase in (
            "65,536 bytes",
            "100 header fields",
            "gh-87389",
            "Connection: close",
            "Connection: keep-alive",
            "(414)",
            "(431;",
            "(501)",
            "(505)",
            "serve.responses.protocol_error",
            "MemoizedPayload",
            "by construction",
        ):
            assert phrase in section, phrase


class TestReadme:
    def test_benchmark_table_targets_exist(self):
        readme = read("README.md")
        for name in set(re.findall(r"benchmarks/(test_\w+\.py)", readme)):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_example_listing_matches_directory(self):
        readme = read("README.md")
        for name in set(re.findall(r"examples/(\w+\.py)", readme)):
            assert (ROOT / "examples" / name).exists(), name

    def test_docs_reference_exists(self):
        assert (ROOT / "docs" / "methodology.md").exists()
        assert "docs/methodology.md" in read("README.md")

    def test_sharded_examples_name_a_store(self):
        """A sharded plan reads a columnar store (the CLI exits 2 on
        anything else), so every ``repro analyze`` / ``repro routing``
        command in the README that shards names a ``.store``."""
        commands = read("README.md").replace("\\\n", " ").splitlines()
        sharded = [
            line
            for line in commands
            if re.search(r"repro (analyze|routing)\b", line)
            and re.search(r"--(workers|shards)\b", line)
        ]
        assert sharded, "README shows no sharded command"
        assert [line for line in sharded if ".store" not in line] == []


class TestStoreFormatVersion:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md"])
    def test_every_store_format_named_is_the_current_one(self, name):
        """Prose that names "store format vN" describes the format this
        build reads and writes; a version bump updates it."""
        from repro.store import STORE_FORMAT_VERSION

        text = " ".join(read(name).split())
        named = re.findall(r"store format v(\d+)", text)
        assert named, f"{name} names no store format version"
        assert set(named) == {str(STORE_FORMAT_VERSION)}


class TestExamplesReadme:
    def test_listed_scripts_exist_and_vice_versa(self):
        examples_readme = read("examples/README.md")
        listed = set(re.findall(r"`(\w+\.py)`", examples_readme))
        actual = {
            path.name
            for path in (ROOT / "examples").glob("*.py")
        }
        assert listed == actual, (listed, actual)


class TestBenchmarkCoverage:
    def test_every_paper_artifact_has_a_benchmark(self):
        names = {path.name for path in (ROOT / "benchmarks").glob("test_*.py")}
        for artifact in (
            "test_fig1_sessions.py",
            "test_fig2_bytes.py",
            "test_fig3_transactions.py",
            "test_fig4_walkthrough.py",
            "test_fig5_population_mix.py",
            "test_fig6_global.py",
            "test_fig7_rtt_vs_hd.py",
            "test_fig8_degradation.py",
            "test_fig9_opportunity.py",
            "test_fig10_relationships.py",
            "test_table1_classes.py",
            "test_table2_relationships.py",
            "test_validation_goodput.py",
        ):
            assert artifact in names, f"missing benchmark for {artifact}"


# --------------------------------------------------------------------- #
# Surface guards: what is exported is used, what is written once stays once
# --------------------------------------------------------------------- #
def _exported(path: pathlib.Path) -> list:
    """The names in a module's literal ``__all__``."""
    import ast

    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _references() -> dict:
    """name -> files that *use* it, over everything the program ships.

    A use is a name load, an attribute access or an import — except an
    import inside a package ``__init__`` (a re-export). A definition
    (``def``/``class``/assignment target) and an ``__all__`` string are
    neither, so a name only its own module spells out is unreferenced.
    """
    import ast

    found: dict = {}
    for top in ("src", "bench", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif (
                    isinstance(node, ast.ImportFrom)
                    and path.name != "__init__.py"
                ):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    found.setdefault(name, set()).add(path)
    return found


class TestSurfaceGuards:
    def test_every_exported_name_has_a_caller(self):
        """``__all__`` of the kernels, the store, the trace I/O module, the
        shard pipeline and the dispatch package lists nothing that no
        shipped code uses: a function only the tests call is the tests' to
        own (seven kernels and store helpers were, and so was a daemon
        shutdown request, now ``tests.helpers.request_shutdown``)."""
        package = ROOT / "src" / "repro"
        modules = [
            *sorted((package / "kernels").glob("*.py")),
            *sorted((package / "store").glob("*.py")),
            package / "pipeline" / "io.py",
            package / "pipeline" / "parallel.py",
            *sorted((package / "dist").glob("*.py")),
        ]
        references = _references()
        allowlist: set = set()
        unreferenced = sorted(
            f"{module.relative_to(package)}:{name}"
            for module in modules
            for name in _exported(module)
            if name not in references and name not in allowlist
        )
        assert unreferenced == []

    def test_a_jsonl_line_meets_json_loads_once(self):
        """One scanner, one ``json.loads`` (for its error) and one loop
        over a trace's lines, whichever assembler the lines feed."""
        import ast

        source = (ROOT / "src" / "repro" / "pipeline" / "io.py").read_text()
        assert source.count("json.loads(") == 1
        assert source.count("scan_once") == 1
        line_loops = [
            function.name
            for function in ast.walk(ast.parse(source))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "enumerate"
            and ast.unparse(node.iter.args[0]) == "handle"
        ]
        assert line_loops == ["_decode_lines"]

    def test_each_record_rule_is_spelled_once(self):
        """The ``TransactionRecord`` / ``SessionSample`` rules live in the
        ``core.records`` check functions, which both JSONL assemblers call:
        each rule's message appears once under ``src/``, there."""
        import ast

        records = ROOT / "src" / "repro" / "core" / "records.py"
        messages = [
            node.exc.args[0].value
            for function in ast.walk(ast.parse(records.read_text()))
            if isinstance(function, ast.FunctionDef)
            and function.name in ("check_transaction", "check_session")
            for node in ast.walk(function)
            if isinstance(node, ast.Raise)
        ]
        assert len(messages) == 8
        sources = {
            path: path.read_text(encoding="utf-8")
            for path in (ROOT / "src" / "repro").rglob("*.py")
        }
        for message in messages:
            spelled = {
                path.relative_to(ROOT).as_posix(): source.count(f'"{message}"')
                for path, source in sources.items()
                if f'"{message}"' in source
            }
            assert spelled == {"src/repro/core/records.py": 1}, message

    def test_the_route_table_stays_bounded(self):
        """A stream interns its routes in a bounded table: more distinct
        routes than the bound decode correctly and never grow it past."""
        from repro.pipeline import io

        table = io._RouteTable()
        largest = 0
        for index in range(io.ROUTE_TABLE_LIMIT + 500):
            raw = {
                "prefix": f"10.{index // 256}.{index % 256}.0/24",
                "as_path": [64500, index],
                "relationship": "transit",
                "preference_rank": 0,
                "prepended": False,
            }
            route = table.route(raw)
            assert route.prefix == raw["prefix"]
            assert route.as_path == (64500, index)
            assert table.route(dict(raw)) is route
            largest = max(largest, len(table))
        assert largest == io.ROUTE_TABLE_LIMIT

    def test_the_target_memo_stays_bounded(self, tmp_path):
        """The server's engine memoizes each target's resolution in a
        bounded memo: a flood of distinct valid targets as long as a
        request line allows never grows it past ``TARGET_MEMO_CHARS``, and
        a target that got a 4xx never enters it."""
        from repro.serve import engine as serve_engine
        from repro.serve.server import MAX_LINE
        from repro.store import write_store
        from tests.helpers import make_trace_samples

        store = tmp_path / "flood.store"
        write_store(store, make_trace_samples(60, seed=3, windows=2))
        engine = serve_engine.QueryEngine(store)
        # The longest target a request line "GET <target> HTTP/1.1\r\n" holds.
        length = MAX_LINE - len("GET  HTTP/1.1\r\n")
        largest = 0
        for index in range(3 * serve_engine.TARGET_MEMO_CHARS // length):
            head = f"/v1/quantiles?pop={index:05d}"
            target = head + "x" * (length - len(head))
            rejected = (
                target[: -len("&limit=1")] + "&limit=1",  # 400: unknown parameter
                "/v1/gone?" + target[len("/v1/gone?"):],  # 404
            )
            assert engine.handle_target(target)[0] == 200
            assert [engine.handle_target(bad)[0] for bad in rejected] == [400, 404]
            assert target in engine._targets
            assert not any(bad in engine._targets for bad in rejected)
            chars = sum(map(len, engine._targets))
            assert chars == engine._target_chars <= serve_engine.TARGET_MEMO_CHARS
            largest = max(largest, chars)
        assert largest > serve_engine.TARGET_MEMO_CHARS - length

    def test_the_server_parses_no_target(self):
        """A request target is resolved in one place, the engine's
        ``handle_target``: the transport imports no URL parser."""
        import ast

        server = ROOT / "src" / "repro" / "serve" / "server.py"
        imported = set()
        for node in ast.walk(ast.parse(server.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert not {name for name in imported if name.startswith("urllib")}

    def test_block_checksum_has_one_writer_and_one_reader(self):
        import ast

        callers = set()
        store = ROOT / "src" / "repro" / "store"
        for path in sorted(store.glob("*.py")):
            for function in ast.walk(ast.parse(path.read_text())):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "block_checksum"
                    ):
                        callers.add(f"{path.name}:{function.name}")
        assert callers == {
            "schema.py:encode_rows",  # on write
            "reader.py:checksum_mismatch",  # the one comparison on read
        }

    def test_manifest_identity_has_one_definition_and_two_callers(self):
        """The stat rule that says a manifest parse is still valid is
        written once, and the appender and the server both call it."""
        import ast

        spelled, callers = set(), set()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if "st_mtime_ns" in source:
                spelled.add(path.name)
            for function in ast.walk(ast.parse(source)):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "manifest_identity"
                    ):
                        callers.add(f"{path.name}:{function.name}")
        assert spelled == {"writer.py"}
        assert callers == {
            "writer.py:append",  # StoreAppender, before and after a publish
            "engine.py:__init__",  # QueryEngine's seed
            "engine.py:_refresh_generation",  # and its per-request check
        }

    def test_only_gc_paused_switches_the_collector_off(self):
        """``store.schema.gc_paused`` is the one pause, and its ``finally``
        the one resume: a second spelling could leave the collector off
        on an exit path its tests do not take."""
        import ast

        spelled = {}
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if "gc.disable" in source:
                spelled[path.name] = source.count("gc.disable")
        assert spelled == {"schema.py": 1}
        source = (ROOT / "src" / "repro" / "store" / "schema.py").read_text()
        (pause,) = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == "gc_paused"
        ]
        assert "gc.disable()" in ast.get_source_segment(source, pause)

    def test_one_retry_loop_for_every_backend(self):
        """Inline, pool and dispatch shards all run under
        ``parallel._execute``: it is the one function that waits on
        ``FIRST_COMPLETED`` and the one that calls the failure policy, so
        a second retry loop cannot come back unnoticed."""
        import ast

        users = {"FIRST_COMPLETED": set(), "_on_shard_failure": set()}
        for path in sorted((ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    name = getattr(node, "id", None) or getattr(node, "attr", None)
                    if name in users:
                        users[name].add(f"{path.name}:{function.name}")
        assert users == {
            "FIRST_COMPLETED": {"parallel.py:_execute"},
            "_on_shard_failure": {"parallel.py:_execute"},
        }

    def test_a_daemon_does_not_unpickle(self):
        """A shard task is a descriptor (CONTRIBUTING.md): the daemon, which
        reads frames from whoever connects, imports no unpickler. Nothing
        under ``src/repro/dist/`` calls ``pickle.loads(``: the one unpickler
        there is ``decode_result``'s, which reads result frames — on the
        client, from daemons it dialed — and resolves only the globals a
        shard result references (``tests/test_result_fuzz.py``)."""
        import ast

        dist = ROOT / "src" / "repro" / "dist"
        daemon = ast.parse((dist / "daemon.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(daemon):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module, *(alias.name for alias in node.names)}
        assert "pickle" not in imported

        sources = {
            path.name: path.read_text(encoding="utf-8")
            for path in sorted(dist.glob("*.py"))
        }
        assert [name for name, source in sources.items() if "pickle.loads(" in source] == []
        assert {
            name: source.count("Unpickler(")
            for name, source in sources.items()
            if "Unpickler(" in source
        } == {"serialization.py": 2}  # the class statement and its one use
        (decode_result,) = [
            node
            for node in ast.walk(ast.parse(sources["serialization.py"]))
            if isinstance(node, ast.FunctionDef) and node.name == "decode_result"
        ]
        assert "_ResultUnpickler(" in ast.get_source_segment(
            sources["serialization.py"], decode_result
        )

    def test_one_transport_and_one_renderer(self):
        """``repro serve`` owns its HTTP/1.1 loop (``serve/server.py``):
        nothing under ``src/`` imports ``http.server``, ``render_payload``
        is the one place a response body is serialised (the one other
        ``json.dumps`` under ``serve/`` keys partials), and no flag, option or
        environment variable selects another transport."""
        import argparse
        import ast

        from repro.cli import build_parser

        imports, dumps = [], set()
        for path in sorted((ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                imports += [
                    f"{path.name}: {name}"
                    for name in names
                    if name.startswith("http.server")
                ]
            if path.parent.name != "serve":
                continue
            assert "environ" not in ast.unparse(tree), path.name
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef):
                    dumps |= {
                        f"{path.name}:{function.name}"
                        for node in ast.walk(function)
                        if isinstance(node, ast.Attribute) and node.attr == "dumps"
                    }
        assert imports == []
        assert dumps == {"server.py:render_payload"}

        (commands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert {
            option
            for action in commands.choices["serve"]._actions
            for option in action.option_strings
        } == {
            "-h", "--help", "--host", "--port", "--cache-capacity",
            "--windows", "--max-requests", "--metrics-out", "--profile",
        }

    def test_group_sharding_is_gone(self):
        """Samples never cross a process boundary: nothing under ``src/``
        spells the in-memory shard plan's names."""
        offenders = [
            f"{path.relative_to(ROOT)}: {name}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for name in ("shard_samples", "shard_of", "indexed_samples")
            if name in path.read_text(encoding="utf-8")
        ]
        assert offenders == []

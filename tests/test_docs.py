"""Documentation consistency checks.

Docs rot silently; these tests pin the load-bearing cross-references:
every benchmark DESIGN.md's experiment index names must exist, every
example README names must exist, and the README's module table must match
the actual package layout.
"""

import ast
import functools
import importlib
import itertools
import pathlib
import re
import sys
import textwrap

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


#: A possessive repeat (``*+``, ``++``, ``?+``, ``}+``) or an atomic group:
#: regex syntax from Python 3.11, in a string literal.
_POSSESSIVE = re.compile(r"(?<!\\)[*+?}]\+|\(\?>")


def _newer_than_floor(tree: ast.AST):
    """``(line, what)`` for each use in ``tree`` of an API the 3.9 grammar
    parses but 3.9 lacks, outside the body of a ``sys.version_info >=``
    test: ``zip(strict=)``, ``dataclass(slots=/kw_only=)``,
    ``itertools.pairwise``, ``int.bit_count`` and possessive or atomic
    regex syntax."""
    gated = set()
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if (
            isinstance(node, (ast.If, ast.IfExp))
            and isinstance(test, ast.Compare)
            and ast.unparse(test.left) == "sys.version_info"
            and isinstance(test.ops[0], ast.GtE)
        ):
            body = node.body if isinstance(node.body, list) else [node.body]
            for part in body:
                gated.update(map(id, ast.walk(part)))
    for node in ast.walk(tree):
        if id(node) in gated:
            continue
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).rpartition(".")[2]
            keywords = {keyword.arg for keyword in node.keywords}
            if name == "zip" and "strict" in keywords:
                yield node.lineno, "zip(strict=)"
            for keyword in sorted(keywords & {"slots", "kw_only"}):
                if name == "dataclass":
                    yield node.lineno, f"dataclass({keyword}=)"
        elif isinstance(node, ast.Attribute) and node.attr in (
            "pairwise", "bit_count"
        ):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "pairwise" for alias in node.names):
                yield node.lineno, "pairwise"
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, (str, bytes)
        ):
            text = node.value
            if isinstance(text, bytes):
                text = text.decode("latin-1")
            if _POSSESSIVE.search(text):
                yield node.lineno, "possessive or atomic regex"


class TestPackaging:
    def test_src_keeps_to_the_declared_python_floor(self):
        """``requires-python`` says 3.9: every ``src/`` file parses under
        the 3.9 grammar and uses no newer API the parse cannot see."""
        floor = re.search(r'requires-python = ">=3\.(\d+)"', read("pyproject.toml"))
        assert floor and floor.group(1) == "9"
        found = []
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 9))
            found += [
                f"{path.relative_to(ROOT)}:{line}: {what}"
                for line, what in _newer_than_floor(tree)
            ]
        assert not found, found

    @pytest.mark.parametrize(
        "source",
        [
            "zip(a, b, strict=True)",
            "@dataclass(slots=True)\nclass A: pass",
            "@dataclasses.dataclass(kw_only=True)\nclass A: pass",
            "from itertools import pairwise",
            "itertools.pairwise(values)",
            "(5).bit_count()",
            "re.compile(r'a*+b')",
            "re.compile(rb'(?>ab)c')",
            "match x:\n    case 1: pass",
        ],
    )
    def test_the_floor_check_can_fail(self, source):
        try:
            tree = ast.parse(source, feature_version=(3, 9))
        except SyntaxError:
            return
        assert list(_newer_than_floor(tree))

    def test_a_version_gated_use_passes_the_floor_check(self):
        tree = ast.parse(
            'repeat = b"*+" if sys.version_info >= (3, 11) else b"*"\n'
            "if sys.version_info >= (3, 10):\n    pairs = zip(a, b, strict=True)"
        )
        assert list(_newer_than_floor(tree)) == []
    def test_the_library_declares_no_runtime_dependency(self):
        """``pip install -e .`` pulls nothing in: numpy is the ``bench``
        extra, read only by ``python3 -m bench`` for its host record."""
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(read("pyproject.toml"))["project"]
        assert project["dependencies"] == []
        assert project["optional-dependencies"]["bench"] == ["numpy>=1.21"]

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
    )
    def test_src_imports_only_the_standard_library_and_itself(self):
        outside = set()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.partition(".")[0]
                    if top != "repro" and top not in sys.stdlib_module_names:
                        outside.add(f"{path.relative_to(ROOT)}: {name}")
        assert not outside, sorted(outside)


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
            and isinstance(node.exc.args[0], ast.Constant)
        ]
        assert len(messages) == 10
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
            "schema.py:encode_columns",  # on write
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
            "writer.py:append_partitions",  # StoreAppender, before and after a publish
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


# --------------------------------------------------------------------- #
# Reachability: src/ holds only what an entry point reaches
# --------------------------------------------------------------------- #
#: Definitions under ``src/repro`` that only the test suite reaches, kept on
#: purpose: ``<path under src/repro>:<qualname>`` -> why.
TEST_ONLY = {
    "faultinject.py:inject": "installs a fault plan: the fault matrix's hook",
    "faultinject.py:reset": "forgets consumed fault budgets between tests",
    "obs/manifest.py:RunManifest.sample_accounting":
        "read accessor the counter-equality tests compare manifests by",
    "obs/manifest.py:RunManifest.stage_names":
        "read accessor pinning a manifest's stage tree",
    "obs/registry.py:MetricsRegistry.gauge": "read accessor for one gauge",
    "obs/registry.py:MetricsRegistry.timer_stat": "read accessor for one timer",
    "obs/registry.py:MetricsRegistry.timer":
        "context-manager form of observe(), tested as registry API",
    "obs/tracing.py:Tracer.open_depth": "read accessor: spans close on error",
    "obs/tracing.py:active_tracer": "read accessor for the installed tracer",
    "netsim/engine.py:Simulator.events_processed":
        "event counter the engine tests assert",
    "netsim/engine.py:Simulator.events_cancelled":
        "tombstone counter the engine tests assert",
    "netsim/engine.py:Simulator.pending_events":
        "queue counter the engine tests assert",
    "stats/tdigest.py:TDigest.total_weight":
        "weight counter the t-digest merge tests assert",
    "stats/tdigest.py:TDigest.centroid_count":
        "size counter the t-digest bound test asserts",
    "core/minrtt.py:MinRttEstimator.sample_count":
        "sample counter the estimator tests assert",
    "pipeline/ingest.py:StreamingIngestor.watermark":
        "read accessor the watermark tests assert",
}

#: The console script; every other root is a module-level statement under
#: src/ or a name bench/, benchmarks/, examples/ or tools/ uses.
ENTRY_POINT = "cli.py:main"

_UPPER_CASE = re.compile(r"_*[A-Z][A-Z0-9_]*$")


def _uses(nodes) -> set:
    """The names ``nodes`` read, and the attributes they access."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


class _Definition:
    """A ``def`` or ``class`` at module level or in a class body, or a
    module-level ``UPPER_CASE`` assignment, under ``src/repro``."""

    def __init__(self, package, path, module, qualname, node, owner, uses):
        self.module, self.qualname, self.owner = module, qualname, owner
        self.name = qualname.rpartition(".")[2]
        self.uses = uses
        self.path = path.relative_to(package.parent.parent).as_posix()
        self.key = f"{path.relative_to(package).as_posix()}:{qualname}"
        decorators = getattr(node, "decorator_list", [])
        self.line = min([node.lineno] + [decorator.lineno for decorator in decorators])
        self.lines = node.end_lineno - self.line + 1

    @functools.cached_property
    def called_by_protocol(self) -> bool:
        """A dunder, or an override of a method of a base class defined
        outside the package (``pickle.Unpickler.find_class``): whoever holds
        the object calls it without spelling the name here."""
        if self.name.startswith("__") and self.name.endswith("__"):
            return True
        owner = importlib.import_module(self.module)
        for part in self.qualname.split(".")[:-1]:
            owner = getattr(owner, part)
        package = self.module.partition(".")[0]
        return any(
            self.name in vars(base)
            for base in owner.__mro__[1:]
            if base.__module__.partition(".")[0] != package
        )


def _src_definitions(package=ROOT / "src" / "repro"):
    """Every definition under ``package``, and the names its module-level
    statements use (imports, ``__all__`` and the definitions excluded)."""
    definitions, roots = [], set()

    def define(path, module, qualname, node, owner, uses):
        definition = _Definition(package, path, module, qualname, node, owner, uses)
        definitions.append(definition)
        return definition

    def visit(path, module, body, owner=None, prefix=""):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                uses = _uses([*node.decorator_list, node.args, *node.body])
                uses |= _uses([node.returns] if node.returns else [])
                define(path, module, prefix + node.name, node, owner, uses)
            elif isinstance(node, ast.ClassDef):
                members = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                uses = _uses(
                    [*node.bases, *node.keywords, *node.decorator_list]
                    + [item for item in node.body if not isinstance(item, members)]
                )
                cls = define(path, module, prefix + node.name, node, owner, uses)
                visit(path, module, node.body, cls, f"{prefix}{node.name}.")
            elif owner is not None or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue  # a class body's statements are the class's uses
            elif isinstance(node, (ast.If, ast.Try)):
                roots.update(_uses([node.test] if isinstance(node, ast.If) else []))
                for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                    visit(path, module, block)
                for handler in getattr(node, "handlers", []):
                    visit(path, module, handler.body)
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                name = getattr(targets[0], "id", None) if len(targets) == 1 else None
                if name == "__all__":
                    continue
                if name is not None and _UPPER_CASE.match(name):
                    uses = _uses([node.value] if node.value else [])
                    define(path, module, name, node, None, uses)
                else:
                    roots.update(_uses([node]))

    for path in sorted(package.rglob("*.py")):
        parts = (package.name,) + path.relative_to(package).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(path, module, ast.parse(path.read_text(encoding="utf-8")).body)
    return definitions, roots


@functools.lru_cache(maxsize=1)
def _reachability_inputs():
    """The definitions under ``src/repro``, and the root names: those its
    module-level statements use, and every name read, attribute accessed
    or name imported under bench/, benchmarks/, examples/ and tools/."""
    definitions, roots = _src_definitions()
    for top in ("bench", "benchmarks", "examples", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            roots |= _uses([tree])
            roots |= {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
    return definitions, frozenset(roots)


def _unreached(definitions, roots, seeds=()) -> list:
    """The ``definitions`` nothing reaches, by name and transitively, from
    ``ENTRY_POINT``, the ``roots`` names or ``seeds``. A method (or nested
    class) counts only once its class is reached; an unreached class is
    listed alone, not with its members."""
    names, live = set(roots), set()
    progress = True
    while progress:
        progress = False
        for definition in definitions:
            owner = definition.owner
            if definition.key in live or (owner and owner.key not in live):
                continue
            if (
                definition.key in seeds
                or definition.key == ENTRY_POINT
                or definition.name in names
                or (owner and definition.called_by_protocol)
            ):
                live.add(definition.key)
                names |= definition.uses
                progress = True
    return [
        definition
        for definition in definitions
        if definition.key not in live
        and (definition.owner is None or definition.owner.key in live)
    ]


def _unreached_report(dead) -> str:
    """One ``path:line qualname (N lines)`` line per unreached definition,
    then the totals."""
    return (
        "unreached definitions (delete them, or move them into tests/):\n"
        + "".join(
            f"{definition.path}:{definition.line} {definition.qualname} "
            f"({definition.lines} lines)\n"
            for definition in dead
        )
        + f"{len(dead)} definitions, "
        f"{sum(definition.lines for definition in dead)} lines"
    )


def _stale_entries(allowlist, definitions, roots) -> list:
    """The ``allowlist`` keys that name no definition, or a definition that
    production reaches, each with why."""
    keys = {definition.key for definition in definitions}
    unreached = {definition.key for definition in _unreached(definitions, roots)}
    return [
        f"{key}: "
        + ("no such definition" if key not in keys else "has a production caller")
        for key in allowlist
        if key not in unreached
    ]


class TestReachability:
    def test_every_definition_in_src_is_reached(self):
        """Nothing under ``src/`` is dead code: every definition is reached
        from ``repro.cli.main``, a module-level statement (a table, a
        registry) or a name bench/, benchmarks/, examples/ or tools/ uses
        — or is on ``TEST_ONLY`` with its reason. A package re-export or an
        ``__all__`` entry is not a use."""
        dead = _unreached(*_reachability_inputs(), seeds=TEST_ONLY)
        if dead:
            pytest.fail(_unreached_report(dead))

    def test_the_test_only_allowlist_is_current(self):
        """Each ``TEST_ONLY`` entry names a definition that still exists and
        that production still does not reach."""
        stale = _stale_entries(TEST_ONLY, *_reachability_inputs())
        assert not stale, "stale TEST_ONLY entries:\n" + "\n".join(stale)
        assert len(TEST_ONLY) <= 20


_package_names = itertools.count()


@pytest.fixture
def package(tmp_path, monkeypatch):
    """Writes a throwaway package under ``tmp_path/src`` and returns a
    function ``(files) -> package path``; ``files`` maps a path under the
    package to its source. ``cli.py:main`` is the entry point, as in
    ``src/repro``."""
    name = f"reach_fixture_{next(_package_names)}"
    monkeypatch.syspath_prepend(str(tmp_path / "src"))

    def write(files):
        root = tmp_path / "src" / name
        for relative, source in {"__init__.py": "", **files}.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source).replace("PKG", name))
        return root

    yield write
    for module in [module for module in sys.modules if module.startswith(name)]:
        del sys.modules[module]


def unreached_keys(root, seeds=()):
    return {definition.key for definition in _unreached(*_src_definitions(root), seeds)}


class TestReachabilityRule:
    """The rule ``TestReachability`` applies, on small packages."""

    def test_an_uncalled_function_is_unreached(self, package):
        root = package({"cli.py": """
            def main():
                return 0

            def helper():
                return 1
        """})
        assert unreached_keys(root) == {"cli.py:helper"}

    def test_what_the_entry_point_calls_is_reached(self, package):
        root = package({
            "cli.py": """
                from PKG.util import helper

                def main():
                    return helper()
            """,
            "util.py": """
                def helper():
                    return 1
            """,
        })
        assert unreached_keys(root) == set()

    def test_what_only_dead_code_calls_is_unreached(self, package):
        root = package({"cli.py": """
            def main():
                return 0

            def dead():
                return deader()

            def deader():
                return 1
        """})
        assert unreached_keys(root) == {"cli.py:dead", "cli.py:deader"}

    def test_a_package_reexport_is_not_a_use(self, package):
        root = package({
            "__init__.py": """
                from PKG.util import helper

                __all__ = ["helper"]
            """,
            "cli.py": """
                def main():
                    return 0
            """,
            "util.py": """
                def helper():
                    return 1
            """,
        })
        assert unreached_keys(root) == {"util.py:helper"}

    def test_a_module_level_statement_is_a_root(self, package):
        root = package({"cli.py": """
            HANDLERS = []

            def main():
                return HANDLERS

            def handle():
                return 1

            HANDLERS.append(handle)
        """})
        assert unreached_keys(root) == set()

    def test_a_used_table_reaches_its_values(self, package):
        root = package({"cli.py": """
            def build_a():
                return 1

            def build_b():
                return 2

            _BUILDERS = {"a": build_a}

            def main():
                return _BUILDERS["a"]()
        """})
        assert unreached_keys(root) == {"cli.py:build_b"}

    def test_an_unread_upper_case_constant_is_unreached(self, package):
        root = package({"cli.py": """
            TIMEOUT_SECONDS = 5.0
            RETRIES = 3

            def main():
                return RETRIES
        """})
        assert unreached_keys(root) == {"cli.py:TIMEOUT_SECONDS"}

    def test_an_override_of_an_outside_base_is_reached(self, package):
        root = package({"cli.py": """
            import pickle

            class Loader(pickle.Unpickler):
                def find_class(self, module, name):
                    return super().find_class(module, name)

                def unused(self):
                    return 0

            def main():
                return Loader
        """})
        assert unreached_keys(root) == {"cli.py:Loader.unused"}

    def test_an_override_of_an_inside_base_needs_a_caller(self, package):
        root = package({"cli.py": """
            class Base:
                def hook(self):
                    return 0

            class Child(Base):
                def hook(self):
                    return 1

            def main():
                return Child()
        """})
        assert unreached_keys(root) == {"cli.py:Base.hook", "cli.py:Child.hook"}

    def test_dunder_methods_of_a_reached_class_are_reached(self, package):
        root = package({"cli.py": """
            class Box:
                def __init__(self, items):
                    self.items = items

                def __len__(self):
                    return len(self.items)

            def main():
                return Box([])
        """})
        assert unreached_keys(root) == set()

    def test_the_members_of_an_unreached_class_are_not_listed(self, package):
        root = package({"cli.py": """
            class Dead:
                def method(self):
                    return 0

                def __repr__(self):
                    return "Dead"

            def main():
                return 0
        """})
        assert unreached_keys(root) == {"cli.py:Dead"}

    def test_a_seed_reaches_what_it_calls(self, package):
        root = package({"cli.py": """
            def main():
                return 0

            def test_hook():
                return helper()

            def helper():
                return 1
        """})
        assert unreached_keys(root) == {"cli.py:test_hook", "cli.py:helper"}
        assert unreached_keys(root, seeds={"cli.py:test_hook"}) == set()

    def test_definitions_in_module_level_if_and_try_are_scanned(self, package):
        root = package({"cli.py": """
            import sys

            if sys.maxsize > 2:
                def wide():
                    return 1
            else:
                def wide():
                    return 0

            try:
                import zlib
            except ImportError:
                def fallback():
                    return None

            def main():
                return wide()
        """})
        assert unreached_keys(root) == {"cli.py:fallback"}


class TestReachabilityReports:
    def test_the_report_gives_path_line_qualname_and_size(self, package):
        root = package({"cli.py": """
            def main():
                return 0

            def helper():
                x = 1
                return x
        """})
        report = _unreached_report(_unreached(*_src_definitions(root)))
        package_path = f"src/{root.name}/cli.py"
        assert f"{package_path}:5 helper (3 lines)\n" in report
        assert report.endswith("1 definitions, 3 lines")

    def test_a_decorated_definition_starts_at_its_decorator(self, package):
        root = package({"cli.py": """
            import functools

            def main():
                return 0

            @functools.lru_cache(maxsize=None)
            def cached():
                return 1
        """})
        [dead] = _unreached(*_src_definitions(root))
        assert (dead.qualname, dead.line, dead.lines) == ("cached", 7, 3)

    def test_an_allowlist_entry_for_a_missing_definition_is_stale(self, package):
        root = package({"cli.py": """
            def main():
                return 0
        """})
        stale = _stale_entries({"cli.py:gone": "why"}, *_src_definitions(root))
        assert stale == ["cli.py:gone: no such definition"]

    def test_an_allowlist_entry_with_a_production_caller_is_stale(self, package):
        root = package({"cli.py": """
            def main():
                return helper()

            def helper():
                return 1
        """})
        stale = _stale_entries({"cli.py:helper": "why"}, *_src_definitions(root))
        assert stale == ["cli.py:helper: has a production caller"]

    def test_an_allowlist_entry_nothing_reaches_is_current(self, package):
        root = package({"cli.py": """
            def main():
                return 0

            def accessor():
                return 1
        """})
        assert _stale_entries({"cli.py:accessor": "why"}, *_src_definitions(root)) == []

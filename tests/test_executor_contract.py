"""Executor-conformance suite: every backend honors one contract.

The backend contract (DESIGN.md §13) is what makes *where* shards run
orthogonal to *what* they compute: any backend — inline, process pool, or
dispatch over socket daemons, each a ``concurrent.futures`` executor under
the one retry loop ``parallel._execute`` — must produce datasets and data
counters byte-identical to the one-pass fold of the same columnar store,
and must route every failed attempt through the same
retry/quarantine/strict policy so accounting is indistinguishable across
backends.

Nothing names a backend to the library: ``options_for`` builds the
``ParallelOptions`` whose inputs *derive* each ``BACKENDS`` entry. The
pool appears twice — once for real ("process"), once with its shards on
threads of this process ("thread", ``tests.helpers.in_process_pool``),
which is how its retry loop meets a count-limited fault plan.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import pathlib

import pytest

from repro import faultinject
from repro.dist import WorkerDaemon
from repro.faultinject import FaultPlan
from repro.obs import MetricsRegistry, activate_metrics
from repro.pipeline import (
    ParallelOptions,
    ShardError,
    StudyDataset,
    build_dataset,
)
from repro.pipeline import parallel
from repro.pipeline.io import plan_chunks

from tests.helpers import (  # noqa: F401 — fixtures are used by name
    LOCAL_BACKENDS,
    in_process_pool,
    local_options,
    make_trace_samples,
    write_trace_paths,
)
from tests.test_pipeline_parallel import assert_datasets_equal

pytestmark = pytest.mark.dist

STUDY_WINDOWS = 8

BACKENDS = LOCAL_BACKENDS + ("dispatch",)
#: Backends whose shards run in this process (or its threads), where a
#: programmatic ``faultinject.inject`` plan is visible. The process pool
#: picks plans up from the environment instead, with per-child budgets —
#: so count-limited (transient) faults are exercised on these only.
IN_PROCESS_BACKENDS = ("serial", "thread", "dispatch")


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    faultinject.reset()
    yield
    faultinject.reset()


@pytest.fixture(scope="module")
def samples():
    return make_trace_samples(500, seed=47, windows=STUDY_WINDOWS)


@pytest.fixture(scope="module")
def serial_dataset(samples):
    return StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(samples))


@pytest.fixture(scope="module")
def store(samples, tmp_path_factory):
    """The sample stream saved as a store: what every shard plan reads."""
    return write_trace_paths(tmp_path_factory.mktemp("contract"), samples)[
        "store"
    ]


@pytest.fixture(scope="module")
def daemons():
    with WorkerDaemon() as first, WorkerDaemon() as second:
        yield (first.address, second.address)


@pytest.fixture
def options_for(local_options, daemons):
    """``build(backend, **kw)``: a 4-shard, 2-worker plan on ``backend``."""

    def build(backend, **kwargs) -> ParallelOptions:
        kwargs.setdefault("retry_backoff", 0.0)
        if backend == "dispatch":
            kwargs["worker_addrs"] = daemons
            options = ParallelOptions(workers=2, shards=4, **kwargs)
        else:
            options = local_options(backend, shards=4, workers=2, **kwargs)
        # "thread" is the process backend with its pool class patched.
        assert options.backend == {"thread": "process"}.get(backend, backend)
        return options

    return build


def _ledger_accounting(ledger) -> tuple:
    """The backend-invariant shape of a degraded ledger.

    Error *text* legitimately differs across backends (a dispatch run
    reports ``RemoteCause: RuntimeError: ...`` — the stringified stand-in
    every backend uses for an exception that cannot cross a boundary —
    where a local one reports ``RuntimeError: ...``), so it is excluded
    here and asserted separately.
    """
    payload = ledger.to_dict()
    return (
        payload["shards_lost"],
        payload["samples_lost"],
        payload["partitions_skipped"],
        payload["retries"],
        [
            (e["ordinal"], e["attempts"], e["samples_lost"],
             e["partitions_skipped"])
            for e in payload["shards"]
        ],
    )


# --------------------------------------------------------------------- #
# Equivalence: dataset and data-counter identity vs serial
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestEquivalence:
    def test_dataset_identical_to_serial(
        self, store, serial_dataset, options_for, backend
    ):
        dataset = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=options_for(backend),
        )
        assert_datasets_equal(dataset, serial_dataset)
        assert dataset.degraded is None

    def test_counters_and_gauges_identical_to_serial(
        self, store, options_for, backend
    ):
        serial = build_dataset(store, study_windows=STUDY_WINDOWS)
        dataset = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=options_for(backend),
        )
        assert dataset.metrics.counters == serial.metrics.counters
        assert dataset.metrics.gauges == serial.metrics.gauges


# --------------------------------------------------------------------- #
# Failure policy: retry, quarantine, strict — identical accounting
# --------------------------------------------------------------------- #
class TestFailurePolicy:
    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
    def test_transient_failure_retried_to_clean_result(
        self, store, serial_dataset, options_for, backend
    ):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": 2})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                store,
                study_windows=STUDY_WINDOWS,
                options=options_for(backend),
            )
        assert dataset.degraded is None
        assert_datasets_equal(dataset, serial_dataset)
        assert registry.counter("fault.shard_retries") == 2
        assert registry.counter("fault.shards_quarantined") == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_quarantine_accounting_identical(
        self, store, options_for, backend, monkeypatch
    ):
        # Permanent kill of shard 1, activated via the environment so the
        # process pool's children see it too (budget per process, but a
        # permanent fault has no budget to diverge on).
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": None})
        monkeypatch.setenv(faultinject.ENV_VAR, plan.to_json())
        faultinject.reset()
        serial = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=options_for("serial"),
        )
        faultinject.reset()
        dataset = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=options_for(backend),
        )
        assert dataset.degraded is not None
        assert _ledger_accounting(dataset.degraded) == _ledger_accounting(
            serial.degraded
        )
        # The loss is exact: the lost chunk's manifest row count.
        planned = plan_chunks(store, 4)[1].rows
        assert dataset.degraded.shards[0]["samples_lost"] == planned
        assert dataset.degraded.samples_lost == planned
        # The worker-side error is named in every backend's ledger entry.
        assert "injected fault" in dataset.degraded.shards[0]["error"]
        # The surviving shards are identical to serial's survivors.
        assert dataset.rows == serial.rows
        assert [k for k, _ in dataset.store.items()] == [
            k for k, _ in serial.store.items()
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_raises_shard_error_naming_the_shard(
        self, store, options_for, backend, monkeypatch
    ):
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": None})
        monkeypatch.setenv(faultinject.ENV_VAR, plan.to_json())
        faultinject.reset()
        with pytest.raises(ShardError) as excinfo:
            build_dataset(
                store,
                study_windows=STUDY_WINDOWS,
                options=options_for(backend, strict=True, max_retries=0),
            )
        assert excinfo.value.shard_id == 1
        assert excinfo.value.attempts == 1
        assert "injected fault" in str(excinfo.value)


# --------------------------------------------------------------------- #
# The backend surface
# --------------------------------------------------------------------- #
class TestExecutorRegistry:
    def test_no_production_code_names_a_thread_pool(self):
        # The GIL-bound pool has no workload it wins; threads exist only
        # as what the test seam ``parallel.ProcessPoolExecutor`` is
        # patched to.
        src = pathlib.Path(__file__).parent.parent / "src"
        offenders = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if "ThreadPoolExecutor" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []

    @pytest.mark.parametrize(
        "platform, method",
        [
            pytest.param(
                "linux", "fork", marks=pytest.mark.skipif(
                    "fork" not in multiprocessing.get_all_start_methods(),
                    reason="this platform cannot fork",
                ),
            ),
            ("darwin", "spawn"),
        ],
    )
    def test_the_pool_forks_on_linux_whatever_the_default(
        self, monkeypatch, platform, method
    ):
        # Python 3.14 stops defaulting to fork on Linux; a forked worker
        # inherits the coordinator's manifest parse (DESIGN.md §6). Where
        # fork is not the platform's choice (macOS spawns), it stays so.
        default = multiprocessing.context._default_context
        monkeypatch.setattr(
            default, "_actual_context", multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(parallel.sys, "platform", platform)
        assert multiprocessing.get_start_method() == "spawn"
        pool = parallel._executor_for(ParallelOptions(workers=2), 2)
        try:
            assert pool._mp_context.get_start_method() == method
        finally:
            pool.shutdown()

"""An hour is ``k`` merged store windows: the fact ``/v1/routing`` rests on.

The serve engine folds each store partition once, at the store's window
``ws``, and answers ``/v1/routing`` (hourly windows) by re-keying every
cell's window ``w`` to ``w // k`` with ``k = 3600 / ws``. That is exact
only if ``window_index(t, ws) // k == window_index(t, 3600)`` for every
timestamp, which this file checks where it could fail — on an hour
boundary and a few ulps either side — for every window that tiles an
hour, and that ``/v1/routing`` over a store at such a window equals the
3600 s batch fold. A store window that does not tile an hour answers
``/v1/routing`` with a 400 naming both sizes, and the other endpoints as
before.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import window_index
from repro.pipeline import build_dataset, read_samples
from repro.serve import QueryEngine, render_payload
from repro.serve.engine import _CacheEntry
from repro.store import write_store

from tests.helpers import assert_same_analysis_state, make_trace_samples

pytestmark = pytest.mark.serve

HOUR = 3600.0
TILING = (3600.0, 1800.0, 1200.0, 900.0, 600.0, 450.0, 300.0, 60.0)


def stepped(t, steps):
    """``t`` moved ``steps`` representable floats up (or down)."""
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        t = math.nextafter(t, direction)
    return t


@settings(max_examples=1000, deadline=None)
@given(
    ws=st.sampled_from(TILING),
    # Hour boundaries up to ~2^34 s, well past any epoch timestamp a
    # trace holds, and the fine windows' boundaries inside the hour.
    hour=st.integers(0, 2**34 // 3600),
    inner=st.integers(0, 59),
    steps=st.integers(-4, 4),
)
def test_store_windows_tile_the_hour(ws, hour, inner, steps):
    k = int(HOUR / ws)
    assert k * ws == HOUR
    for base in (hour * HOUR, hour * HOUR + (inner % k) * ws):
        t = stepped(base, steps)
        assert window_index(t, ws) // k == window_index(t, ws * k) == (
            window_index(t, HOUR)
        ), (ws, t)


@pytest.mark.parametrize("ws", [3600.0, 1800.0, 300.0])
def test_routing_over_any_tiling_store_window_equals_the_hourly_fold(tmp_path, ws):
    """Derived hours equal the 3600 s batch fold at every tiling window:
    order-exact when the store is already hourly (``k == 1``), as
    multisets otherwise; verdicts and payload bytes exact either way."""
    store = tmp_path / "tiled.store"
    write_store(store, make_trace_samples(300, seed=29, windows=8), window_seconds=ws)
    engine = QueryEngine(store)
    served_body = render_payload(engine.handle("/v1/routing", {})[1])
    key = ("routing", None, None, None)
    served = engine.cache.get(key).dataset
    batch = build_dataset(
        list(read_samples(store)),
        study_windows=engine.routing_windows,
        keep_response_sizes=True,
        window_seconds=HOUR,
    )
    assert_same_analysis_state(served, batch, multiset=ws != HOUR)
    for metric in ("minrtt", "hdratio"):
        assert served.verdicts(metric, "opportunity") == batch.verdicts(
            metric, "opportunity"
        )
    twin = QueryEngine(store)
    twin.cache.put(key, _CacheEntry(batch))
    assert served_body == render_payload(twin.handle("/v1/routing", {})[1])


def test_a_store_window_that_does_not_tile_an_hour(tmp_path):
    store = tmp_path / "odd.store"
    write_store(
        store, make_trace_samples(200, seed=3, windows=6), window_seconds=1000.0
    )
    engine = QueryEngine(store)
    status, payload = engine.handle("/v1/routing", {})
    assert status == 400
    assert payload["error"] == "bad_request"
    assert "3600 s" in payload["detail"] and "1000 s" in payload["detail"]
    status, payload = engine.handle("/v1/quantiles", {})
    assert status == 200
    assert payload["window_seconds"] == 1000.0
    assert payload["sessions"] > 0
    assert engine.handle("/v1/degradation", {})[0] == 200
    # A refusal caches nothing and counts as a client error.
    assert engine.handle("/v1/routing", {"pop": ["ams1"]})[0] == 400
    assert engine.metrics.counter("serve.responses.client_error") == 2
    assert len(engine.cache) == 1  # the analyze result alone

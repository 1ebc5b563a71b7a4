"""Query-serving layer: HTTP API over the columnar store (§5/§6 use case).

The paper's operational loop is engineers *watching* per-(PoP, country,
window) MinRTT/HDratio quantiles and degradation verdicts, not reading
batch reports after the fact. This package turns the reproduction's batch
pipeline into that service: a dependency-free HTTP API (its own HTTP/1.1
keep-alive loop on stdlib :mod:`socketserver`) over a sealed
:mod:`repro.store` trace store.

Endpoints (all GET, canonical sorted-key JSON):

- ``/v1/quantiles``   — fig6-style MinRTT/HDratio quantiles, filterable
  by ``pop``/``country``/``window``;
- ``/v1/degradation`` — §5 verdicts: per-group temporal classification
  (uneventful/episodic/continuous/diurnal) + CI-bounded degraded-traffic
  fraction;
- ``/v1/routing``     — §6 routing opportunity (fig9): traffic within
  slack of optimal, improvable fractions;
- ``/v1/health``      — store generation, cache stats, quarantine ledger
  (§9 failure model), optional full CRC audit via ``?verify=1``.

Numbers are *defined* to be the batch pipeline's numbers: every query
resolves through the same column fold, shard merger and figure drivers
the CLI runs, so the serving layer inherits the equivalence-to-serial
contract (byte-identical cold/warm/serial/threaded —
``tests/test_serve_api.py``).

Layering: :mod:`repro.serve.cache` (exactly-accounted LRU of query
results) → :mod:`repro.serve.engine` (request-target resolution and its
memo, per-partition partials merged on demand, generation-based
invalidation on ``append_to_store``, typed 400/503 mapping, response
memos) → :mod:`repro.serve.server` (request
parser, typed 400/414/431/501/505 rejections, and the one renderer, which
renders a memoized payload once). ``repro serve`` is the CLI entry point;
DESIGN.md §12 is the spec.
"""

from repro.serve.cache import LruCache
from repro.serve.engine import (
    BadRequest,
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_ROUTING_WINDOWS,
    QUANTILE_POINTS,
    QueryEngine,
)
from repro.serve.server import TraceStoreHTTPServer, make_server, render_payload

__all__ = [
    "BadRequest",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_ROUTING_WINDOWS",
    "LruCache",
    "QUANTILE_POINTS",
    "QueryEngine",
    "TraceStoreHTTPServer",
    "make_server",
    "render_payload",
]

"""Vectorized column-batch analysis kernels (DESIGN.md §10).

The row path (:mod:`repro.core` + :class:`repro.pipeline.dataset.StudyDataset`)
materializes one ``SessionSample``/``TransactionRecord`` object per row and
walks the §3.2 methodology record by record. This package runs the same math
directly over decoded column arrays — flat per-transaction lists indexed by a
per-session length column, the layout the columnar store already holds — with
no per-row object materialization on the hot path.

These kernels are the only path ``build_dataset`` runs. The row path is the
**equivalence oracle** the tests call: every kernel here is required to
reproduce its row implementation bit for bit (same expressions, evaluated in
the same order, on the same Python numeric types), so kernel output — rows,
aggregations, reports, figures, counters — is byte-identical to the row
fold's. The invariant is enforced by ``tests/test_batch_equivalence.py``
(end-to-end differential matrix) and ``tests/test_kernels_property.py``
(per-kernel Hypothesis properties), so a divergence names the kernel.

Layout contract and oracle argument: DESIGN.md §10.
"""

from repro.kernels.columns import ColumnBatch
from repro.kernels.engine import (
    BatchIngestor,
    batches_from_pairs,
    fold_into_dataset,
    iter_batches,
)
from repro.kernels.goodput import (
    FunnelCounts,
    funnel_single,
    session_funnel,
)

__all__ = [
    "BatchIngestor",
    "ColumnBatch",
    "FunnelCounts",
    "batches_from_pairs",
    "funnel_single",
    "fold_into_dataset",
    "iter_batches",
    "session_funnel",
]

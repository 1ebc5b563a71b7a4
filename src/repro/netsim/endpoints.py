"""Instrumented server endpoint over a simulated TCP connection.

Reproduces the load-balancer instrumentation contract of §2.2.2/§3.2.5 on
top of :class:`repro.netsim.tcp.TcpConnection`:

- per transaction, capture **Wnic** — the cwnd when the first response byte
  is written to the NIC (here: when the first segment of the transaction's
  byte range is transmitted);
- capture the NIC timestamp of that first transmission (``first_byte_time``);
- capture the time the cumulative ACK first covers the **second-to-last**
  packet of the transaction (the delayed-ACK correction: the last packet and
  its possibly-delayed ACK are excluded);
- capture bytes in flight when the transaction's first byte was sent;
- read MinRTT from the connection's kernel-style estimator at "session
  close".

The output is a list of :class:`repro.core.records.TransactionRecord` — the
exact input type of the analysis layer — so the packet simulator and the
synthetic workload generator feed identical downstream code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.records import TransactionRecord
from repro.netsim.engine import Simulator
from repro.netsim.tcp import TcpConnection

__all__ = ["InstrumentedServer", "TransferResult"]


@dataclass
class _PendingTransaction:
    start_seq: int
    end_seq: int
    response_bytes: int
    last_packet_bytes: int
    bytes_in_flight_at_start: int
    first_byte_time: Optional[float] = None
    last_byte_write_time: Optional[float] = None
    wnic_bytes: Optional[int] = None
    second_to_last_ack_time: Optional[float] = None
    final_ack_time: Optional[float] = None

    @property
    def measurement_seq(self) -> int:
        """Stream offset whose ACK closes the measured portion."""
        return self.end_seq - self.last_packet_bytes

    @property
    def complete(self) -> bool:
        return self.final_ack_time is not None


@dataclass
class TransferResult:
    """Everything a scenario needs to evaluate one connection's transfers.

    ``spans`` holds, per transaction, ``(first_byte_time, final_ack_time,
    response_bytes)`` — the *uncorrected* wall-clock view Figure 4 quotes —
    while ``records`` carry the delayed-ACK-corrected measurement view the
    estimator consumes.
    """

    records: List[TransactionRecord]
    spans: List[tuple]
    #: ``None`` when the connection produced no RTT sample at all — distinct
    #: from a genuine 0.0 measurement on a zero-propagation path.
    min_rtt_seconds: Optional[float]
    total_bytes: int
    completion_time: float
    retransmits: int
    timeouts: int

    def observed_goodput(self, index: int) -> float:
        """Wall-clock goodput (bytes/s) of transaction ``index``, first byte
        to final ACK — the quantity Figure 4 quotes."""
        first, final, nbytes = self.spans[index]
        return nbytes / (final - first)


class InstrumentedServer:
    """Drives transaction responses over a connection and records state."""

    def __init__(self, sim: Simulator, connection: TcpConnection) -> None:
        self.sim = sim
        self.connection = connection
        self._pending: List[_PendingTransaction] = []
        self._completed: List[_PendingTransaction] = []
        self._queue: List[int] = []
        self._waiting_for_idle: bool = False
        connection.on_segment_sent.append(self._on_segment_sent)
        connection.on_ack_progress.append(self._on_ack_progress)

    # ------------------------------------------------------------------ #
    # Driving transactions
    # ------------------------------------------------------------------ #
    def send_response(self, nbytes: int) -> None:
        """Write one response of ``nbytes`` to the connection now."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        in_flight = self.connection.state.bytes_in_flight
        mss = self.connection.params.mss_bytes
        last_packet = nbytes % mss or mss
        start = self.connection.next_write_seq
        # Register the transaction *before* writing: the first segments may
        # transmit synchronously inside write() and the Wnic capture hook
        # must already be watching the byte range.
        self._pending.append(
            _PendingTransaction(
                start_seq=start,
                end_seq=start + nbytes,
                response_bytes=nbytes,
                last_packet_bytes=last_packet,
                bytes_in_flight_at_start=in_flight,
            )
        )
        self.connection.write(nbytes)

    def send_after_ack(self, nbytes: int) -> None:
        """Queue a response to be written once the stream is fully ACKed.

        Models back-to-back request/response transactions where the client
        requests the next object after receiving the previous one.
        """
        self._queue.append(nbytes)
        self._maybe_dequeue()

    def _maybe_dequeue(self) -> None:
        if self._queue and self.connection.all_acked:
            nbytes = self._queue.pop(0)
            self.send_response(nbytes)

    # ------------------------------------------------------------------ #
    # Instrumentation hooks
    # ------------------------------------------------------------------ #
    def _on_segment_sent(self, seq: int, end: int, now: float) -> None:
        for txn in self._pending:
            if txn.first_byte_time is None and txn.start_seq <= seq < txn.end_seq:
                txn.first_byte_time = now
                txn.wnic_bytes = self.connection.state.cwnd_bytes
            if (
                txn.last_byte_write_time is None
                and seq < txn.end_seq <= end
            ):
                txn.last_byte_write_time = now

    def _on_ack_progress(self, ack: int, now: float) -> None:
        still_pending: List[_PendingTransaction] = []
        for txn in self._pending:
            if txn.second_to_last_ack_time is None and ack >= txn.measurement_seq:
                txn.second_to_last_ack_time = now
            if txn.final_ack_time is None and ack >= txn.end_seq:
                txn.final_ack_time = now
            if txn.complete:
                self._completed.append(txn)
            else:
                still_pending.append(txn)
        self._pending = still_pending
        self._maybe_dequeue()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def result(self) -> TransferResult:
        """Collect records once the simulation has drained."""
        finished = sorted(self._completed, key=lambda txn: txn.start_seq)
        records = []
        for txn in finished:
            if txn.first_byte_time is None or txn.wnic_bytes is None:
                continue
            # Single-packet responses have no second-to-last packet; their
            # measured portion is empty and the record is built so that
            # measured_bytes == 0 (the analysis skips them but still grows
            # the window chain).
            ack_time = txn.second_to_last_ack_time
            if txn.response_bytes <= txn.last_packet_bytes or ack_time is None:
                ack_time = txn.first_byte_time
                last = txn.response_bytes
            else:
                last = txn.last_packet_bytes
            last_write = txn.last_byte_write_time
            if last_write is not None and last_write < txn.first_byte_time:
                last_write = txn.first_byte_time
            records.append(
                TransactionRecord(
                    first_byte_time=txn.first_byte_time,
                    ack_time=max(ack_time, txn.first_byte_time),
                    response_bytes=txn.response_bytes,
                    last_packet_bytes=last,
                    cwnd_bytes_at_first_byte=txn.wnic_bytes,
                    bytes_in_flight_at_start=txn.bytes_in_flight_at_start,
                    last_byte_write_time=last_write,
                )
            )
        # Preserve "no sample" (None) as-is: consumers that need a number
        # must decide their own fallback, and 0.0 is a legitimate
        # measurement on zero-propagation paths (see validation's
        # effective_min_rtt).
        min_rtt = self.connection.min_rtt.at_termination(self.sim.now)
        completion = max((t.final_ack_time or 0.0 for t in finished), default=0.0)
        spans = [
            (txn.first_byte_time, txn.final_ack_time, txn.response_bytes)
            for txn in finished
            if txn.first_byte_time is not None and txn.final_ack_time is not None
        ]
        return TransferResult(
            records=records,
            spans=spans,
            min_rtt_seconds=min_rtt,
            total_bytes=sum(t.response_bytes for t in finished),
            completion_time=completion,
            retransmits=self.connection.state.retransmits,
            timeouts=self.connection.state.timeouts,
        )

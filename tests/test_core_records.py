"""Validation tests for the record dataclasses."""

import pytest

from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
    UserGroupKey,
)


class TestRouteInfo:
    def test_as_path_length_and_preference(self):
        route = RouteInfo(
            prefix="10.0.0.0/20",
            as_path=(1299, 64500),
            relationship=Relationship.TRANSIT,
            preference_rank=1,
        )
        assert route.as_path_length == 2
        assert route.preference_rank != 0

    def test_preferred_rank_zero(self):
        route = RouteInfo(
            prefix="10.0.0.0/20",
            as_path=(64500,),
            relationship=Relationship.PRIVATE,
        )
        assert route.preference_rank == 0

    def test_frozen(self):
        route = RouteInfo("10.0.0.0/20", (64500,), Relationship.PRIVATE)
        with pytest.raises(AttributeError):
            route.prefix = "changed"


class TestTransactionRecord:
    def _valid(self, **overrides):
        fields = dict(
            first_byte_time=1.0,
            ack_time=1.5,
            response_bytes=10_000,
            last_packet_bytes=1500,
            cwnd_bytes_at_first_byte=15_000,
        )
        fields.update(overrides)
        return TransactionRecord(**fields)

    def test_measured_values(self):
        record = self._valid()
        assert record.transfer_time == pytest.approx(0.5)
        assert record.measured_bytes == 8_500

    def test_rejects_time_reversal(self):
        with pytest.raises(ValueError):
            self._valid(ack_time=0.5)

    def test_rejects_write_before_first_byte(self):
        with pytest.raises(ValueError):
            self._valid(last_byte_write_time=0.5)

    def test_rejects_zero_cwnd(self):
        with pytest.raises(ValueError):
            self._valid(cwnd_bytes_at_first_byte=0)

    def test_allows_unknown_write_time(self):
        record = self._valid(last_byte_write_time=None)
        assert record.last_byte_write_time is None


class TestSessionSample:
    def _valid(self, **overrides):
        fields = dict(
            session_id=1,
            start_time=0.0,
            end_time=60.0,
            http_version=HttpVersion.HTTP_2,
            min_rtt_seconds=0.040,
            bytes_sent=1000,
            busy_time_seconds=6.0,
        )
        fields.update(overrides)
        return SessionSample(**fields)

    def test_derived_properties(self):
        sample = self._valid()
        assert sample.duration == 60.0
        assert sample.busy_fraction == pytest.approx(0.1)
        assert sample.min_rtt_ms == pytest.approx(40.0)
        assert sample.transaction_count == 0

    def test_busy_fraction_capped_at_one(self):
        sample = self._valid(busy_time_seconds=600.0)
        assert sample.busy_fraction == 1.0

    def test_zero_duration_busy_fraction(self):
        sample = self._valid(end_time=0.0, busy_time_seconds=0.0)
        assert sample.busy_fraction == 1.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            self._valid(end_time=-1.0)

    def test_rejects_nonpositive_minrtt(self):
        with pytest.raises(ValueError):
            self._valid(min_rtt_seconds=0.0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            self._valid(bytes_sent=-1)


class TestUserGroupKey:
    def test_hashable_and_stable_str(self):
        key = UserGroupKey(pop="ams1", prefix="10.0.0.0/20", country="NL")
        assert str(key) == "ams1|10.0.0.0/20|NL"
        assert key == UserGroupKey("ams1", "10.0.0.0/20", "NL")
        assert {key: 1}[UserGroupKey("ams1", "10.0.0.0/20", "NL")] == 1

    def test_distinct_countries_distinct_groups(self):
        a = UserGroupKey("ams1", "10.0.0.0/20", "NL")
        b = UserGroupKey("ams1", "10.0.0.0/20", "DE")
        assert a != b

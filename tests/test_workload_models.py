"""Tests for the workload models: profiles, sessions, channel, events."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hdratio import compute_hdratio
from repro.core.records import HttpVersion
from repro.edge.geo import Continent
from repro.workload.channel import ChannelModel, PathState
from repro.workload.events import (
    ContinuousImpairment,
    DiurnalCongestion,
    EpisodicOutage,
    activity_level,
    combine_events,
    local_hour,
)
from repro.workload.profiles import (
    default_profiles,
    lte_class,
    mobile_profiles,
    rail_class,
)
from repro.workload.sessions import WorkloadModel


class TestProfiles:
    def test_all_continents_present(self):
        profiles = default_profiles()
        assert set(profiles) == set(Continent)

    def test_sampled_profiles_valid(self):
        rng = random.Random(1)
        for profile_mix in default_profiles().values():
            for _ in range(200):
                profile = profile_mix.sample(rng)
                assert profile.downlink_mbps > 0
                assert profile.last_mile_rtt_ms > 0
                assert 0 <= profile.loss_probability <= 0.3

    def test_africa_has_more_non_hd_links_than_europe(self):
        rng = random.Random(2)
        profiles = default_profiles()

        def non_hd_fraction(continent):
            draws = [profiles[continent].sample(rng) for _ in range(3000)]
            # Below the 2.5 Mbps HD target at the raw link rate.
            return sum(1 for d in draws if d.downlink_mbps < 2.5) / len(draws)

        assert non_hd_fraction(Continent.AFRICA) > non_hd_fraction(
            Continent.EUROPE
        ) + 0.15

    def test_asia_last_mile_slower_than_europe(self):
        rng = random.Random(3)
        profiles = default_profiles()

        def median_last_mile(continent):
            draws = sorted(
                profiles[continent].sample(rng).last_mile_rtt_ms
                for _ in range(3001)
            )
            return draws[1500]

        assert median_last_mile(Continent.ASIA) > median_last_mile(Continent.EUROPE)


class TestMobileProfiles:
    """LTE/high-mobility access classes with jitter and burst loss."""

    def test_mobile_profiles_registered(self):
        assert set(mobile_profiles()) == {"lte", "rail"}

    def test_mobile_classes_sample_jitter_and_burst_loss(self):
        rng = random.Random(7)
        for access_class in (lte_class(), rail_class()):
            for _ in range(100):
                profile = access_class.sample(rng)
                assert profile.jitter_ms > 0
                assert 0 < profile.burst_loss_probability < 0.1

    def test_default_classes_stay_jitter_free(self):
        # The new fields must not perturb existing continent profiles: no
        # jitter/burst draws, and the RNG stream is untouched.
        rng_a = random.Random(11)
        rng_b = random.Random(11)
        mix = default_profiles()[Continent.EUROPE]
        for _ in range(50):
            profile = mix.sample(rng_a)
            assert profile.jitter_ms == 0.0
            assert profile.burst_loss_probability == 0.0
        # Same draws as an identically seeded stream consumed three at a time.
        reference = mix.sample(rng_b)
        replay = default_profiles()[Continent.EUROPE].sample(random.Random(11))
        assert replay.downlink_mbps == reference.downlink_mbps

    def test_rail_harsher_than_lte(self):
        rng = random.Random(13)
        lte = [lte_class().sample(rng) for _ in range(2000)]
        rail = [rail_class().sample(rng) for _ in range(2000)]

        def median(values):
            ordered = sorted(values)
            return ordered[len(ordered) // 2]

        assert median(p.last_mile_rtt_ms for p in rail) > median(
            p.last_mile_rtt_ms for p in lte
        )
        assert median(p.burst_loss_probability for p in rail) > median(
            p.burst_loss_probability for p in lte
        )


class TestWorkloadModel:
    @pytest.fixture
    def specs(self):
        model = WorkloadModel(random.Random(11))
        return [model.sample_session() for _ in range(8000)]

    def test_duration_checkpoints(self, specs):
        durations = sorted(s.target_duration_seconds for s in specs)
        n = len(durations)
        import bisect

        under_1s = bisect.bisect(durations, 1.0) / n
        under_60s = bisect.bisect(durations, 60.0) / n
        over_180s = 1 - bisect.bisect(durations, 180.0) / n
        assert 0.05 < under_1s < 0.11       # paper: 7.4%
        assert 0.28 < under_60s < 0.48      # paper: 33%
        assert 0.14 < over_180s < 0.30      # paper: 20%

    def test_h1_shorter_than_h2(self, specs):
        h1 = [s for s in specs if s.http_version is HttpVersion.HTTP_1_1]
        h2 = [s for s in specs if s.http_version is HttpVersion.HTTP_2]

        def under_minute(group):
            return sum(
                1 for s in group if s.target_duration_seconds < 60
            ) / len(group)

        assert under_minute(h1) > under_minute(h2) + 0.08  # paper: 44% vs 26%

    def test_transaction_counts(self, specs):
        h1 = [s for s in specs if s.http_version is HttpVersion.HTTP_1_1]
        h2 = [s for s in specs if s.http_version is HttpVersion.HTTP_2]

        def under_5(group):
            return sum(1 for s in group if s.transaction_count < 5) / len(group)

        assert under_5(h1) == pytest.approx(0.87, abs=0.06)
        assert under_5(h2) == pytest.approx(0.75, abs=0.06)
        assert under_5(h1) > under_5(h2)

    def test_heavy_sessions_carry_most_bytes(self, specs):
        total = sum(s.total_response_bytes for s in specs)
        heavy = sum(
            s.total_response_bytes for s in specs if s.transaction_count >= 50
        )
        assert heavy / total > 0.4  # paper: more than half

    def test_most_sessions_small(self, specs):
        small = sum(1 for s in specs if s.total_response_bytes < 10_000)
        assert small / len(specs) > 0.40  # paper: 58%

    def test_response_size_median(self, specs):
        sizes = sorted(
            t.response_bytes for s in specs for t in s.transactions
        )
        assert sizes[len(sizes) // 2] < 6000  # paper: median < 6 KB

    def test_first_transaction_has_no_think_time(self, specs):
        assert all(s.transactions[0].think_time_seconds == 0.0 for s in specs)


class TestChannelModel:
    def _session(self, model, path, spec_seed=5):
        spec = WorkloadModel(random.Random(spec_seed)).sample_session()
        return model.simulate_session(spec, path, start_time=100.0)

    def test_good_path_high_hdratio(self):
        model = ChannelModel(random.Random(1))
        path = PathState(base_rtt_ms=30.0, bottleneck_mbps=50.0)
        results = []
        for seed in range(60):
            sample = self._session(model, path, spec_seed=seed)
            hd = compute_hdratio(sample)
            if hd is not None:
                results.append(hd)
        assert results
        assert sum(results) / len(results) > 0.9

    def test_slow_link_zero_hdratio(self):
        model = ChannelModel(random.Random(2))
        path = PathState(base_rtt_ms=30.0, bottleneck_mbps=1.0)
        results = []
        for seed in range(60):
            sample = self._session(model, path, spec_seed=seed)
            hd = compute_hdratio(sample)
            if hd is not None:
                results.append(hd)
        assert results
        assert sum(results) / len(results) < 0.1

    def test_loss_degrades_hdratio(self):
        clean_model = ChannelModel(random.Random(3))
        lossy_model = ChannelModel(random.Random(3))
        clean_path = PathState(base_rtt_ms=40.0, bottleneck_mbps=20.0)
        lossy_path = PathState(
            base_rtt_ms=40.0, bottleneck_mbps=20.0, loss_probability=0.05
        )

        def mean_hd(model, path):
            values = []
            for seed in range(80):
                hd = compute_hdratio(self._session(model, path, spec_seed=seed))
                if hd is not None:
                    values.append(hd)
            return sum(values) / len(values)

        assert mean_hd(lossy_model, lossy_path) < mean_hd(clean_model, clean_path) - 0.1

    def test_min_rtt_tracks_path(self):
        model = ChannelModel(random.Random(4))
        path = PathState(base_rtt_ms=75.0, bottleneck_mbps=20.0)
        sample = self._session(model, path)
        assert sample.min_rtt_ms == pytest.approx(75.0, rel=0.10)

    def test_queue_delay_inflates_min_rtt(self):
        model = ChannelModel(random.Random(5))
        path = PathState(base_rtt_ms=40.0, bottleneck_mbps=20.0, queue_delay_ms=30.0)
        sample = self._session(model, path)
        assert sample.min_rtt_ms > 65.0

    def test_sample_is_well_formed(self):
        model = ChannelModel(random.Random(6))
        path = PathState(base_rtt_ms=50.0, bottleneck_mbps=10.0, loss_probability=0.01)
        sample = self._session(model, path)
        assert sample.end_time > sample.start_time
        assert sample.busy_time_seconds <= sample.duration
        assert len(sample.transactions) >= 1
        for record in sample.transactions:
            assert record.ack_time >= record.first_byte_time
            assert record.cwnd_bytes_at_first_byte > 0

    def test_transactions_ordered(self):
        model = ChannelModel(random.Random(7))
        path = PathState(base_rtt_ms=50.0, bottleneck_mbps=10.0)
        sample = self._session(model, path, spec_seed=8)
        starts = [t.first_byte_time for t in sample.transactions]
        assert starts == sorted(starts)

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError):
            PathState(base_rtt_ms=0.0, bottleneck_mbps=10.0)
        with pytest.raises(ValueError):
            PathState(base_rtt_ms=10.0, bottleneck_mbps=0.0)
        with pytest.raises(ValueError):
            PathState(base_rtt_ms=10.0, bottleneck_mbps=1.0, loss_probability=1.0)


class TestEvents:
    def test_local_hour_wraps(self):
        assert 0.0 <= local_hour(0, 0.0) < 24.0
        assert local_hour(0, 180.0) == pytest.approx(12.0)

    def test_activity_peaks_in_evening(self):
        evening = activity_level(21.0)
        night = activity_level(4.0)
        assert evening > 0.95
        assert night < 0.25

    def test_diurnal_congestion_only_at_peak(self):
        event = DiurnalCongestion(longitude_deg=0.0)
        # Find windows at local 4am and 9pm (UTC day, longitude 0).
        from repro.core.classification import WINDOWS_PER_DAY

        night_window = int(4 / 24 * WINDOWS_PER_DAY)
        peak_window = int(21 / 24 * WINDOWS_PER_DAY)
        assert event.modifier_at(night_window).extra_queue_ms == 0.0
        assert event.modifier_at(peak_window).extra_queue_ms > 0.0

    def test_episodic_outage_window_bounds(self):
        event = EpisodicOutage(start_window=10, end_window=12)
        assert event.modifier_at(9).extra_loss == 0.0
        assert event.modifier_at(10).extra_loss > 0.0
        assert event.modifier_at(11).extra_loss > 0.0
        assert event.modifier_at(12).extra_loss == 0.0

    def test_episodic_requires_span(self):
        with pytest.raises(ValueError):
            EpisodicOutage(start_window=5, end_window=5)

    def test_continuous_always_on(self):
        event = ContinuousImpairment()
        for window in (0, 100, 500):
            assert event.modifier_at(window).capacity_factor < 1.0

    def test_combine_stacks_modifiers(self):
        events = [
            ContinuousImpairment(queue_ms=5.0, loss=0.01, capacity_factor=0.8),
            EpisodicOutage(start_window=0, end_window=10, queue_ms=10.0,
                           loss=0.02, capacity_factor=0.5),
        ]
        combined = combine_events(events, window=5)
        assert combined.extra_queue_ms == pytest.approx(15.0)
        assert combined.extra_loss == pytest.approx(0.03)
        assert combined.capacity_factor == pytest.approx(0.4)

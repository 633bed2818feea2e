"""Fair-access properties across participants.

"Fair access" is the paper's regulatory requirement: no participant
gets systematically earlier processing or earlier market data.  These
tests check the *cross-participant* symmetry of the system, which no
single aggregate metric captures.
"""

import numpy as np

from repro.core.cluster import CloudExCluster
from tests.conftest import small_config


def spy_release_instants(cluster):
    """seq -> the true instants at which each gateway's clock reads the
    piece's ``release_at``, taken as the piece is offered.  A release
    timer only exists where someone subscribes, so this is the instant
    every gateway *would* dispense at, whether or not it does."""
    release_times = {}
    for gateway in cluster.gateways:
        buffer = gateway.hr_buffer

        def spy(piece, _orig=buffer.offer, _clock=gateway.clock):
            release_times.setdefault(piece.seq, []).append(_clock.local_to_true(piece.release_at))
            _orig(piece)

        buffer.offer = spy
    return release_times


def release_spreads(cluster, release_times):
    return [
        max(times) - min(times)
        for times in release_times.values()
        if len(times) == cluster.config.n_gateways
    ]


class TestFairAccess:
    def test_all_participants_get_served(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect", seed=23))
        cluster.add_default_workload(rate_per_participant=200.0)
        cluster.run(duration_s=1.0)
        for participant in cluster.participants:
            assert participant.orders_submitted > 50
            assert participant.confirmations_received > 0.8 * participant.orders_submitted

    def test_submission_latency_symmetric_across_participants(self):
        """On equalized paths (no stragglers), every participant's mean
        submission latency lands in a tight band -- the 'equalized
        cable lengths' property, in the cloud."""
        cluster = CloudExCluster(small_config(clock_sync="perfect", seed=23))
        cluster.add_default_workload(rate_per_participant=300.0)
        cluster.run(duration_s=1.5)
        means = cluster.metrics.submission_mean_by_participant_us()
        assert len(means) == cluster.config.n_participants
        values = list(means.values())
        assert max(values) - min(values) < 0.25 * float(np.mean(values))

    def test_straggler_breaks_symmetry_ros_restores_it(self):
        def spread(rf):
            cluster = CloudExCluster(
                small_config(
                    clock_sync="perfect",
                    n_gateways=3,
                    replication_factor=rf,
                    straggler_gateways=1,
                    straggler_multiplier=4.0,
                    seed=29,
                )
            )
            cluster.add_default_workload(rate_per_participant=300.0)
            cluster.run(duration_s=1.5)
            values = list(cluster.metrics.submission_mean_by_participant_us().values())
            return (max(values) - min(values)) / float(np.mean(values))

        # With RF=1, participants behind the straggler are second-class
        # citizens; RF=3 routes everyone around it.
        assert spread(1) > 2 * spread(3)

    def test_md_fanout_reaches_every_gateway_equally(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect", seed=23))
        cluster.add_default_workload(rate_per_participant=200.0)
        cluster.run(duration_s=1.0)
        handled = [g.hr_buffer.held_count for g in cluster.gateways]
        # Every gateway holds every piece: identical counts.
        assert len(set(handled)) == 1
        assert handled[0] > 100

    def test_release_instants_cluster_tightly_across_gateways(self):
        """The point of H/R + clock sync: the same piece is released
        within nanoseconds-to-microseconds across gateways, not the
        hundreds of microseconds of raw network spread."""
        cluster = CloudExCluster(
            small_config(clock_sync="huygens", holdrelease_delay_us=2_000.0, seed=23)
        )
        release_times = spy_release_instants(cluster)
        cluster.add_default_workload(rate_per_participant=200.0)
        cluster.run(duration_s=1.0)

        spreads = release_spreads(cluster, release_times)
        assert len(spreads) > 50
        # Median spread: sub-microsecond (clock sync quality); compare
        # with the raw one-way network jitter (tens of microseconds).
        assert float(np.median(spreads)) < 5_000

    def test_without_sync_release_spread_is_huge(self):
        cluster = CloudExCluster(
            small_config(clock_sync="none", holdrelease_delay_us=2_000.0, seed=23)
        )
        release_times = spy_release_instants(cluster)
        cluster.add_default_workload(rate_per_participant=200.0)
        cluster.run(duration_s=0.5)
        spreads = release_spreads(cluster, release_times)
        assert len(spreads) > 50
        # Boot offsets are +-5 ms: releases diverge by milliseconds.
        assert float(np.median(spreads)) > 500_000

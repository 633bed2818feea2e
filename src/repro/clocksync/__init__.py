"""Clock synchronization for the CloudEx reproduction.

The paper uses the Huygens algorithm (Geng et al., NSDI '18) to
synchronize gateway clocks to the central exchange server's reference
clock with ~159 ns 99th-percentile offsets, and reports that NTP's
~10 ms offsets make it unusable for sequencing orders whose one-way
network latencies are themselves only hundreds of microseconds.

This package implements both:

- :mod:`repro.clocksync.probes` -- columnar probe records and the
  coded-probe spacing filter.
- :mod:`repro.clocksync.huygens` -- Huygens-style estimator: coded
  probes, minimum-delay envelope filtering, and offset+drift
  regression.
- :mod:`repro.clocksync.ntp` -- NTP-style baseline: one unfiltered
  probe exchange through a distant, asymmetric server path.
- :mod:`repro.clocksync.service` -- the periodic service that probes,
  estimates, and disciplines each host clock against the reference.
"""

from repro.clocksync.huygens import HuygensEstimator
from repro.clocksync.ntp import NtpEstimator
from repro.clocksync.probes import ProbeColumns, coded_pair_mask
from repro.clocksync.service import ClockSyncService, SyncEstimate

__all__ = [
    "ClockSyncService",
    "HuygensEstimator",
    "NtpEstimator",
    "ProbeColumns",
    "SyncEstimate",
    "coded_pair_mask",
]

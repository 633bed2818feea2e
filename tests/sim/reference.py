"""The per-round clock inversion the unrolled one replaced, kept as the
reference the tests compare against."""

from repro.sim.clock import HostClock

_BILLION = 1_000_000_000


def local_to_true(clock: HostClock, local_ns: int) -> int:
    """True instant at which ``clock.now()`` reads ``local_ns``: three
    fixed-point rounds on the discipline map, then three on the raw map."""
    if clock._corr_rate_ppb == 0:
        raw = local_ns + clock._corr0_ns
    else:
        raw = local_ns
        for _ in range(3):
            raw = local_ns + clock._correction_at_raw(raw)
    if clock.drift_ppb == 0:
        return raw - clock.offset_ns
    t = raw - clock.offset_ns
    for _ in range(3):
        t = raw - clock.offset_ns - (clock.drift_ppb * t) // _BILLION
    return t

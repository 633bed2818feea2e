"""The periodic clock-synchronization service.

One :class:`ClockSyncService` disciplines a set of client host clocks
(the gateways) against a reference host (the central exchange server).
Each *probe tick* it simulates a coded probe pair in both directions
between the reference and every client, timestamping with the raw host
clocks plus a small NIC timestamp noise.  Each *sync round* it filters
the collected pairs (coded-probe spacing test), runs the configured
estimator (Huygens or NTP), and installs the resulting linear
correction on the client clock.

Probe delays are drawn from the same latency model as the data-plane
link between the two hosts (or an explicit override for NTP's distant
server path) but with the service's own random stream, so probing does
not perturb the data plane's FIFO state.  The unit drawn is a *window*
-- every probe one host sends another over a set of instants; see
:meth:`ClockSyncService._probe_window` for the order its numbers leave
the stream in.

The service also keeps a history of each client's residual clock error
sampled at every probe tick -- the statistic behind the paper's
"99th percentile clock offsets average around 159 ns".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocksync.huygens import EstimationError, HuygensEstimator, SyncEstimate
from repro.clocksync.probes import ProbeColumns, coded_pair_mask
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Host, Network
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MICROSECOND, MILLISECOND

__all__ = ["ClockSyncService", "SyncEstimate"]


class _ClientState:
    """Per-client probe buffers, drift tracking, and error history."""

    def __init__(self) -> None:
        # Windows since the last round; the first half of each holds the
        # first probe of every coded pair, the second half the second.
        self.forward: List[ProbeColumns] = []
        self.reverse: List[ProbeColumns] = []
        self.error_samples_ns: List[int] = []
        self.estimates: List[SyncEstimate] = []
        self.failed_rounds: int = 0
        # (client raw time, theta) points from recent rounds; their
        # slope is the drift estimate fed back as the detrend hint.
        self.history: List[Tuple[int, int]] = []
        self.rate_ppb: int = 0


class ClockSyncService:
    """Synchronizes client clocks to a reference clock.

    Parameters
    ----------
    sim, network:
        The simulation and its fabric.
    reference:
        Host whose clock is the time standard (the exchange server).
    clients:
        Hosts to discipline (the gateways).
    rngs:
        Random stream registry.
    estimator:
        Anything with ``estimate(forward, reverse) -> SyncEstimate``;
        defaults to :class:`HuygensEstimator`.
    probe_interval_ns:
        Time between probe ticks (default 10 ms -> 100 pairs/s/dir).
    sync_interval_ns:
        Time between estimate-and-correct rounds (default 1 s).
    coded_spacing_ns:
        Transmit spacing within a coded probe pair.
    spacing_tolerance_ns:
        Receive-spacing deviation beyond which a pair is discarded.
    timestamp_noise_ns:
        Half-width of uniform NIC timestamping noise.
    path_override:
        ``(forward_model, reverse_model)`` latency models replacing the
        data-plane link models -- used to route NTP probes through a
        distant, asymmetric server path.
    use_coded_filter:
        Disable for NTP, which has no such mechanism.
    use_mesh:
        Enable the Huygens "network effect": clients also probe each
        other, and a least-squares fit over the whole mesh reconciles
        every pairwise estimate before clocks are disciplined.  The
        redundancy averages out per-pair envelope noise.
    mesh_latency:
        Latency model for client<->client probe paths (defaults to the
        reference<->first-client forward model).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        reference: Host,
        clients: Sequence[Host],
        rngs: RngRegistry,
        estimator: Optional[object] = None,
        probe_interval_ns: int = 10 * MILLISECOND,
        sync_interval_ns: int = 1000 * MILLISECOND,
        coded_spacing_ns: int = 20 * MICROSECOND,
        spacing_tolerance_ns: int = 2_000,
        timestamp_noise_ns: int = 25,
        path_override: Optional[Tuple[LatencyModel, LatencyModel]] = None,
        use_coded_filter: bool = True,
        use_mesh: bool = False,
        mesh_latency: Optional[LatencyModel] = None,
    ) -> None:
        if probe_interval_ns <= 0 or sync_interval_ns <= 0:
            raise ValueError("probe and sync intervals must be positive")
        self.sim = sim
        self.network = network
        self.reference = reference
        self.clients = list(clients)
        self.estimator = estimator if estimator is not None else HuygensEstimator()
        self.probe_interval_ns = probe_interval_ns
        self.sync_interval_ns = sync_interval_ns
        self.coded_spacing_ns = coded_spacing_ns
        self.spacing_tolerance_ns = spacing_tolerance_ns
        self.timestamp_noise_ns = timestamp_noise_ns
        self.path_override = path_override
        self.use_coded_filter = use_coded_filter
        self.use_mesh = use_mesh
        self.mesh_latency = mesh_latency
        self.rng = rngs.stream("clocksync:service")
        self._state: Dict[str, _ClientState] = {c.name: _ClientState() for c in self.clients}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin probing and syncing.  Idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(0, self._probe_tick)
        self.sim.schedule(self.sync_interval_ns, self._sync_round)

    def warm_start(self, rounds: int = 3) -> None:
        """Synchronously run ``rounds`` probe/estimate rounds at t=now.

        Benchmarks that assume an already-converged sync (the paper's
        experiments run after hours of Huygens operation) call this
        before starting trading so the very first orders already carry
        accurate timestamps.  Probes are evaluated back-to-back without
        advancing simulation time, using historical raw-clock values.
        """
        for round_index in range(rounds):
            # Rounds are placed in the (virtual) past so successive
            # windows have distinct midpoints -- the drift fit needs
            # x-axis leverage.  Negative true times are fine: they
            # only parameterize clock reads and latency draws.
            base = self.sim.now - (rounds - round_index) * self.sync_interval_ns
            times = self._coded_times(self._window_ticks(base))
            for client in self.clients:
                state = self._state[client.name]
                self._exchange_probes(client, state, times)
                self._estimate_and_correct(client, state)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _path_models(self, client: Host) -> Tuple[LatencyModel, LatencyModel]:
        if self.path_override is not None:
            return self.path_override
        fwd = self.network.link(self.reference.name, client.name).latency
        rev = self.network.link(client.name, self.reference.name).latency
        return fwd, rev

    def _window_ticks(self, base: int) -> np.ndarray:
        """The probe instants of one sync interval starting at ``base``."""
        n_ticks = max(self.sync_interval_ns // self.probe_interval_ns, 8)
        step = max(self.sync_interval_ns // n_ticks, 1)
        return base + step * np.arange(n_ticks, dtype=np.int64)

    def _coded_times(self, ticks: np.ndarray) -> np.ndarray:
        """Send instants of one coded pair per tick: every ``t``, then every ``t + spacing``."""
        return np.concatenate([ticks, ticks + self.coded_spacing_ns])

    def _probe_window(
        self, sender: HostClock, receiver: HostClock, model: LatencyModel, times: np.ndarray
    ) -> ProbeColumns:
        """Draw the probes ``sender`` sends ``receiver`` at true ``times``.

        Determinism contract -- this is the one place the
        ``clocksync:service`` stream is read.  A window consumes, in
        order: its delay column (``model.sample_many``: every jitter,
        then every spike coin, then one factor per spike), then one
        ``integers`` call of ``2 * len(times)`` whose first half is the
        send-stamp noise and second half the receive-stamp noise
        (skipped when ``timestamp_noise_ns`` is 0).  Callers draw a
        pair of hosts' forward window, then its reverse window.
        """
        delays = model.sample_many(self.rng, times)
        sent = sender.raw_local_many(times)
        received = receiver.raw_local_many(times + delays)
        half_width = self.timestamp_noise_ns
        if half_width:
            noise = self.rng.integers(-half_width, half_width + 1, size=2 * len(times))
            sent += noise[: len(times)]
            received += noise[len(times) :]
        return ProbeColumns(sent, received, times)

    def _exchange_probes(self, client: Host, state: _ClientState, times: np.ndarray) -> None:
        """Simulate the coded pairs sent at ``times`` in each direction."""
        fwd_model, rev_model = self._path_models(client)
        ref_clock, cli_clock = self.reference.clock, client.clock
        state.forward.append(self._probe_window(ref_clock, cli_clock, fwd_model, times))
        state.reverse.append(self._probe_window(cli_clock, ref_clock, rev_model, times))

    def _probe_tick(self) -> None:
        times = self._coded_times(np.array([self.sim.now], dtype=np.int64))
        for client in self.clients:
            if not client.up:
                continue
            state = self._state[client.name]
            self._exchange_probes(client, state, times)
            state.error_samples_ns.append(client.clock.error_ns())
        self.sim.schedule(self.probe_interval_ns, self._probe_tick)

    # ------------------------------------------------------------------
    # Estimation and correction
    # ------------------------------------------------------------------
    def _filtered(self, windows: List[ProbeColumns]) -> ProbeColumns:
        first = ProbeColumns.concat([w[: len(w) // 2] for w in windows])
        if self.use_coded_filter:
            second = ProbeColumns.concat([w[len(w) // 2 :] for w in windows])
            survivors = first[coded_pair_mask(first, second, self.spacing_tolerance_ns)]
            # Coded probes cull queued samples, but a congested window
            # can starve the filter entirely; fall back to the raw
            # probes -- the minimum envelope still applies, just with
            # more noise (what real Huygens' SVM does with all points).
            min_needed = getattr(self.estimator, "min_samples", 1)
            if len(survivors) >= min_needed:
                return survivors
        return first

    #: Rounds of (raw, theta) history used for the drift fit.
    _HISTORY_ROUNDS = 8
    #: Sanity clamp on fitted drift (real clocks are well under this).
    _MAX_RATE_PPB = 1_000_000

    def _estimate_and_correct(self, client: Host, state: _ClientState) -> None:
        forward = self._filtered(state.forward)
        reverse = self._filtered(state.reverse)
        state.forward.clear()
        state.reverse.clear()
        try:
            estimate = self.estimator.estimate(forward, reverse, rate_hint_ppb=state.rate_ppb)
        except EstimationError:
            state.failed_rounds += 1
            return
        self._install(client, state, estimate)

    #: An estimate deviating this far from the drift-fit's prediction
    #: means the clock *stepped* (VM migration, operator adjustment);
    #: the history is restarted rather than letting the fit smear the
    #: step into a bogus frequency for the next several rounds.
    _STEP_THRESHOLD_NS = 100_000

    def _install(self, client: Host, state: _ClientState, estimate: SyncEstimate) -> None:
        """Record an estimate, refit the drift, and discipline the clock."""
        state.estimates.append(estimate)

        if state.history:
            last_raw, last_offset = state.history[-1]
            predicted = last_offset + state.rate_ppb * (estimate.ref_raw_ns - last_raw) // 1_000_000_000
            if abs(estimate.offset_ns - predicted) > self._STEP_THRESHOLD_NS:
                state.history.clear()

        # Fit the drift across recent rounds (theta vs client raw time);
        # the slope both disciplines the clock between rounds and
        # detrends the next window's envelope.
        state.history.append((estimate.ref_raw_ns, estimate.offset_ns))
        if len(state.history) > self._HISTORY_ROUNDS:
            del state.history[0]
        rate_ppb = estimate.rate_ppb
        if len(state.history) >= 2:
            xs = np.asarray([h[0] for h in state.history], dtype=np.float64)
            ys = np.asarray([h[1] for h in state.history], dtype=np.float64)
            # A near-degenerate x-span (duplicate windows) would turn
            # offset noise into an absurd slope; keep the old rate then.
            if xs.max() - xs.min() >= self.sync_interval_ns / 2:
                slope = float(np.polyfit(xs - xs[-1], ys, 1)[0])
                rate_ppb = int(round(slope * 1_000_000_000))
                rate_ppb = max(-self._MAX_RATE_PPB, min(self._MAX_RATE_PPB, rate_ppb))
        state.rate_ppb = rate_ppb
        client.clock.set_linear_correction(
            offset_ns=estimate.offset_ns,
            rate_ppb=rate_ppb,
            ref_raw_ns=estimate.ref_raw_ns,
        )

    def _sync_round(self) -> None:
        if self.use_mesh:
            self._mesh_sync_round()
        else:
            for client in self.clients:
                if not client.up:
                    continue
                self._estimate_and_correct(client, self._state[client.name])
        self.sim.schedule(self.sync_interval_ns, self._sync_round)

    # ------------------------------------------------------------------
    # The network effect (mesh mode)
    # ------------------------------------------------------------------
    def _pair_estimate(self, a: Host, b: Host, model: LatencyModel, rate_hint_ppb: int):
        """Estimate theta = raw_b - raw_a over the last sync window.

        Probes are evaluated over the window that just elapsed (clock
        reads at past instants parameterize the estimate, exactly as in
        :meth:`warm_start`).
        """
        ticks = self._window_ticks(self.sim.now - self.sync_interval_ns)
        forward = self._probe_window(a.clock, b.clock, model, ticks)
        reverse = self._probe_window(b.clock, a.clock, model, ticks)
        estimator = self.estimator
        if not hasattr(estimator, "min_samples"):
            estimator = HuygensEstimator()
        return estimator.estimate(forward, reverse, rate_hint_ppb=rate_hint_ppb)

    def _mesh_sync_round(self) -> None:
        """Probe the full mesh and reconcile by least squares.

        Unknowns: theta_c (client raw minus reference) per up client.
        Each pair measurement contributes one row theta_b - theta_a =
        delta_ab (theta_ref = 0).  The overdetermined system averages
        out per-pair envelope noise -- Huygens' "network effect".
        """
        clients = [c for c in self.clients if c.up]
        if not clients:
            return
        mesh_model = self.mesh_latency
        if mesh_model is None:
            mesh_model = self._path_models(clients[0])[0]
        index = {c.name: k for k, c in enumerate(clients)}
        rows: List[List[float]] = []
        values: List[float] = []

        def rate_of(host: Host) -> int:
            if host is self.reference:
                return 0
            return self._state[host.name].rate_ppb

        nodes = [self.reference] + clients
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                model = self._path_models(b)[0] if a is self.reference else mesh_model
                try:
                    estimate = self._pair_estimate(
                        a, b, model, rate_hint_ppb=rate_of(b) - rate_of(a)
                    )
                except EstimationError:
                    continue
                row = [0.0] * len(clients)
                if b.name in index:
                    row[index[b.name]] = 1.0
                if a is not self.reference and a.name in index:
                    row[index[a.name]] = -1.0
                rows.append(row)
                values.append(float(estimate.offset_ns))
        if not rows:
            for client in clients:
                self._state[client.name].failed_rounds += 1
            return
        solution, *_ = np.linalg.lstsq(
            np.asarray(rows), np.asarray(values), rcond=None
        )
        ref_raw_by_client = {c.name: c.clock.raw_local(self.sim.now - self.sync_interval_ns // 2) for c in clients}
        for client in clients:
            state = self._state[client.name]
            theta = int(round(solution[index[client.name]]))
            estimate = SyncEstimate(
                offset_ns=theta,
                rate_ppb=state.rate_ppb,
                ref_raw_ns=ref_raw_by_client[client.name],
                samples_used=len(rows),
            )
            self._install(client, state, estimate)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def error_percentile_ns(self, percentile: float, client: Optional[str] = None) -> float:
        """Percentile of |residual clock error| across sampled ticks.

        With ``client=None``, pools samples from every client -- the
        paper's "99th percentile clock offsets" statistic.
        """
        if client is not None:
            samples = self._state[client].error_samples_ns
        else:
            samples = [e for s in self._state.values() for e in s.error_samples_ns]
        if not samples:
            raise ValueError("no error samples collected yet")
        return float(np.percentile(np.abs(np.asarray(samples, dtype=np.float64)), percentile))

    def estimates_for(self, client: str) -> List[SyncEstimate]:
        """Estimate history for one client."""
        return list(self._state[client].estimates)

    def __repr__(self) -> str:
        return (
            f"ClockSyncService(reference={self.reference.name!r}, "
            f"clients={len(self.clients)}, estimator={type(self.estimator).__name__})"
        )

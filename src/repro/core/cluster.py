"""Build and run a whole CloudEx deployment on the simulator.

:class:`CloudExCluster` is the top-level entry point: it constructs the
simulated GCP testbed of paper §4 (participant VMs, gateway VMs, the
engine VM, links with cloud-like latency), the CloudEx software on top
(gateways, central exchange server, clock synchronization, storage),
seeds the books, and optionally attaches a default zero-intelligence
workload.  Everything is deterministic in ``config.seed``.

Typical use::

    from repro import CloudExCluster, CloudExConfig

    cluster = CloudExCluster(CloudExConfig(n_participants=8, n_gateways=4,
                                           n_symbols=10, seed=7))
    cluster.add_default_workload()
    cluster.run(duration_s=2.0)
    print(cluster.metrics.summary())
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.clocksync.huygens import HuygensEstimator
from repro.clocksync.ntp import NtpEstimator
from repro.clocksync.service import ClockSyncService
from repro.core.auth import AuthRegistry
from repro.core.config import (
    CLOCK_DRIFT_PPB_MAX,
    CLOCK_OFFSET_NS_MAX,
    GATEWAY_CPU_BASELINE_CORES,
    INITIAL_BOOK_DEPTH,
    INITIAL_BOOK_QTY,
    INITIAL_CASH,
    INITIAL_PRICE,
    PARTICIPANT_CPU_BASELINE_CORES,
    CloudExConfig,
    check_positive_finite,
)
from repro.core.exchange import CentralExchangeServer
from repro.core.gateway import Gateway
from repro.core.metrics import MetricsCollector
from repro.core.order import ClientOrderIdAllocator, Order
from repro.core.participant import Participant
from repro.core.portfolio import PortfolioMatrix
from repro.core.sharding import SymbolRouter
from repro.core.types import OrderType, Side
from repro.fairness import make_policy
from repro.obs import DispatchProfiler, EventLog, Tracer
from repro.sim.engine import Simulator
from repro.sim.latency import (
    GammaLatency,
    LatencyModel,
    PeriodicInjectedDelay,
    StragglerLatency,
)
from repro.sim.network import Host, Network
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MICROSECOND, SECOND
from repro.storage.bigtable import Bigtable
from repro.storage.query import HistoricalDataClient
from repro.storage.records import (
    BOOK_SNAPSHOT_FAMILY,
    TRADE_FAMILY,
    write_snapshot,
    write_trade,
)
from repro.traders.base import TradingAgent
from repro.traders.workload import split_symbols
from repro.traders.zi import ZeroIntelligenceStrategy

ENGINE = "engine"
OPERATOR = "operator"
_OPERATOR_SECRET = "cloudex-operator-secret"


def gateway_name(index: int) -> str:
    return f"g{index:02d}"


def participant_name(index: int) -> str:
    return f"p{index:02d}"


def _adjustments(ddp) -> int:
    """Delay moves a DDP controller has made (0 when DDP is off)."""
    return ddp.adjustments if ddp is not None else 0


class CloudExCluster:
    """A fully wired CloudEx deployment."""

    def __init__(self, config: CloudExConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        # Observability (repro.obs): the event log is always on (a plain
        # data structure); the lifecycle tracer and dispatch profiler
        # exist only when config.tracing is set, so the production hot
        # path pays one `is not None` test.
        self.events = EventLog()
        self.tracer: Optional[Tracer] = (
            Tracer(sample_rate=config.trace_sample_rate) if config.tracing else None
        )
        self.profiler: Optional[DispatchProfiler] = None
        if config.tracing:
            self.profiler = DispatchProfiler()
            self.sim.dispatch_hook = self.profiler
        self.network = Network(self.sim, self.rngs)
        self.metrics = MetricsCollector()
        self.auth = AuthRegistry()
        self.portfolio = PortfolioMatrix(default_cash=INITIAL_CASH)
        self.router = SymbolRouter(config.symbols, config.n_shards)
        self.id_allocator = ClientOrderIdAllocator()

        self.trade_table = Bigtable("market-data", (TRADE_FAMILY, BOOK_SNAPSHOT_FAMILY))
        self.history = HistoricalDataClient(self.trade_table)

        self._build_hosts()
        self._build_links()
        self._build_actors()
        self._build_clock_sync()
        self._name_counts()
        self._seed_books()
        self.agents: List[TradingAgent] = []
        self._ran_ns = 0
        self._cpu_window_start = 0
        # Fault injection (repro.chaos): built only when a schedule is
        # configured, armed on the first run() call.
        self.chaos = None
        if config.chaos is not None:
            from repro.chaos.injector import ChaosInjector

            self.chaos = ChaosInjector(self, config.chaos)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _clock_params(self, name: str) -> Dict[str, int]:
        if self.config.clock_sync == "perfect":
            return {"drift_ppb": 0, "offset_ns": 0}
        rng = self.rngs.stream(f"clock:{name}")
        return {
            "drift_ppb": int(rng.integers(-CLOCK_DRIFT_PPB_MAX, CLOCK_DRIFT_PPB_MAX + 1)),
            "offset_ns": int(rng.integers(-CLOCK_OFFSET_NS_MAX, CLOCK_OFFSET_NS_MAX + 1)),
        }

    def _build_hosts(self) -> None:
        config = self.config
        # The engine clock is the time reference (zero error by
        # construction); gateways are disciplined against it.
        self.engine_host = self.network.add_host(ENGINE, drift_ppb=0, offset_ns=0)
        self.gateway_hosts: List[Host] = [
            self.network.add_host(
                gateway_name(i),
                baseline_cores=GATEWAY_CPU_BASELINE_CORES,
                **self._clock_params(gateway_name(i)),
            )
            for i in range(config.n_gateways)
        ]
        self.participant_hosts: List[Host] = [
            self.network.add_host(
                participant_name(i),
                baseline_cores=PARTICIPANT_CPU_BASELINE_CORES,
                **self._clock_params(participant_name(i)),
            )
            for i in range(config.n_participants)
        ]

    def _ge_model(self, inject: bool) -> LatencyModel:
        config = self.config
        model = config.link_model("gateway_engine")
        if inject and config.injected_delay_phases_us is not None:
            phases = [int(us * MICROSECOND) for us in config.injected_delay_phases_us]
            model = PeriodicInjectedDelay(model, phases, config.injected_phase_ns)
        return model

    def is_straggler(self, gateway_index: int) -> bool:
        """The last ``straggler_gateways`` gateways are the slow VMs."""
        return gateway_index >= self.config.n_gateways - self.config.straggler_gateways

    def _maybe_straggle(self, model: LatencyModel, gateway_index: int) -> LatencyModel:
        if self.is_straggler(gateway_index):
            return StragglerLatency(model, self.config.straggler_multiplier)
        return model

    def replica_gateways(self, participant_index: int) -> List[str]:
        """The ordered gateway set for one participant (primary first).

        Links are wired for the configured replication factor; with
        gateway failover enabled, one extra standby gateway is wired so
        demoting a dead primary still leaves ``rf`` live gateways to
        fan out to.
        """
        config = self.config
        primary = participant_index % config.n_gateways
        count = config.replication_factor
        if config.gateway_failover:
            count = min(config.n_gateways, count + 1)
        return [gateway_name((primary + k) % config.n_gateways) for k in range(count)]

    def _build_links(self) -> None:
        config = self.config
        n_injected = 0
        if config.injected_delay_phases_us is not None:
            n_injected = max(1, round(config.injected_gateway_fraction * config.n_gateways))
        for index, host in enumerate(self.gateway_hosts):
            # Paper Fig. 5 injects artificial delay on the gateway ->
            # engine direction (first n_injected gateways); stragglers
            # are slow in both directions.
            inject = index < n_injected
            to_engine = self._maybe_straggle(self._ge_model(inject), index)
            from_engine = self._maybe_straggle(self._ge_model(False), index)
            self.network.connect(host.name, ENGINE, to_engine)
            self.network.connect(ENGINE, host.name, from_engine)
        for p_index in range(config.n_participants):
            pname = participant_name(p_index)
            for gname in self.replica_gateways(p_index):
                g_index = int(gname[1:])
                for src, dst in ((pname, gname), (gname, pname)):
                    model = config.link_model("participant_gateway")
                    self.network.connect(src, dst, self._maybe_straggle(model, g_index))

    # ------------------------------------------------------------------
    # Software
    # ------------------------------------------------------------------
    def _build_actors(self) -> None:
        config = self.config
        trade_sink = None
        snapshot_sink = None
        if config.persist_trades:
            trade_sink = lambda trade, now_local: write_trade(self.trade_table, trade, now_local)
        if config.persist_snapshots:
            snapshot_sink = lambda snap, now_local: write_snapshot(self.trade_table, snap, now_local)

        # One policy instance per cluster, shared by the engine and all
        # gateways (PFO calibrates its holds once, on this instance).
        self.fairness = make_policy(config)
        self.exchange = CentralExchangeServer(
            sim=self.sim,
            network=self.network,
            host=self.engine_host,
            config=config,
            router=self.router,
            portfolio=self.portfolio,
            metrics=self.metrics,
            gateway_names=[host.name for host in self.gateway_hosts],
            trade_sink=trade_sink,
            snapshot_sink=snapshot_sink,
            tracer=self.tracer,
            events=self.events,
            fairness=self.fairness,
        )
        self.gateways: List[Gateway] = [
            Gateway(
                sim=self.sim,
                network=self.network,
                host=host,
                engine_name=ENGINE,
                auth=self.auth,
                config=config,
                tracer=self.tracer,
                events=self.events,
                fairness=self.fairness,
            )
            for host in self.gateway_hosts
        ]
        if config.ddp_outbound_target is None:
            # The collector is the only reader of H/R reports: settle
            # them at the gateway, with no delivery event at the engine.
            for gateway in self.gateways:
                gateway.settle_reports_into(self.metrics.record_md_report)

        self.portfolio.open_account(OPERATOR)
        self.participants: List[Participant] = []
        for index, host in enumerate(self.participant_hosts):
            token = AuthRegistry.mint_token(host.name, _OPERATOR_SECRET)
            self.auth.register(host.name, token)
            self.portfolio.open_account(host.name)
            gateways = self.replica_gateways(index)
            participant = Participant(
                sim=self.sim,
                network=self.network,
                host=host,
                gateways=gateways,
                auth_token=token,
                config=config,
                metrics=self.metrics,
                id_allocator=self.id_allocator,
                history_client=self.history,
                tracer=self.tracer,
                events=self.events,
            )
            self.exchange.register_participant(host.name, gateways[0])
            self.participants.append(participant)

    def _build_clock_sync(self) -> None:
        config = self.config
        self.clock_sync: Optional[ClockSyncService] = None
        if config.clock_sync in ("perfect", "none"):
            return
        estimator, path_override = HuygensEstimator(), None
        if config.clock_sync == "ntp":
            estimator = NtpEstimator()
            # NTP syncs against a server several variable hops away; the
            # forward and reverse paths are asymmetric at the ms scale,
            # which is exactly why its offsets are ~10 ms (paper fn. 3).
            path_override = (
                GammaLatency(2_000_000, 2.0, 2_000_000),
                GammaLatency(2_000_000, 2.0, 12_000_000),
            )
        self.clock_sync = ClockSyncService(
            sim=self.sim,
            network=self.network,
            reference=self.engine_host,
            clients=self.gateway_hosts,
            rngs=self.rngs,
            estimator=estimator,
            path_override=path_override,
        )

    def _name_counts(self) -> None:
        """The reader table: every operational count, read off the
        component that keeps it (``chaos.*`` are named by the injector)."""
        count = self.metrics.count
        hosts, links = self.network.hosts.values(), self.network.links.values()
        exchange, gateways = self.exchange, self.gateways
        count("ddp.inbound_adjustments", lambda: _adjustments(exchange.ddp_inbound))
        count("ddp.outbound_adjustments", lambda: _adjustments(exchange.ddp_outbound))
        for shard in exchange.shards:
            count(f"engine.shard{shard.shard_id}.queue_depth", shard.backlog_size)
        count("hr.late_pieces", lambda: sum(g.hr_buffer.late_count for g in gateways))
        count("net.dropped_partitioned", lambda: sum(l.dropped_partitioned for l in links))
        count("net.dropped_while_down", lambda: sum(
            h.dropped_while_down + h.dropped_sends_while_down for h in hosts))
        count("ros.confirmations_replayed", lambda: exchange.confirmations_replayed)
        count("ros.duplicates_dropped", lambda: exchange.dedup.duplicates_dropped)

    def _seed_books(self) -> None:
        """Pre-populate every book with operator liquidity.

        Gives every symbol a two-sided market around ``INITIAL_PRICE``
        before trading starts, exactly like the exchange operator's
        opening auction would.  Applied directly to the shard cores at
        t=0, before any network traffic.
        """
        config = self.config
        seq = 0
        for symbol in config.symbols:
            shard = self.exchange.shards[self.router.shard_of(symbol)]
            for level in range(INITIAL_BOOK_DEPTH):
                for side, price in (
                    (Side.BUY, INITIAL_PRICE - 1 - level),
                    (Side.SELL, INITIAL_PRICE + 1 + level),
                ):
                    seq += 1
                    order = Order(
                        client_order_id=self.id_allocator.next_id(),
                        participant_id=OPERATOR,
                        symbol=symbol,
                        side=side,
                        order_type=OrderType.LIMIT,
                        quantity=INITIAL_BOOK_QTY,
                        limit_price=price,
                        gateway_id="seed",
                        gateway_timestamp=0,
                        gateway_seq=seq,
                        stamped_true=0,
                    )
                    result = shard.core.process_order(order, now_local=0)
                    if result.trades:
                        raise AssertionError(
                            f"book seeding must not self-cross (symbol {symbol})"
                        )

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def add_default_workload(self, rate_per_participant: Optional[float] = None) -> None:
        """Attach the paper's default flow: one ZI trader per participant
        at ``rate_per_participant`` orders/s (default: the config's
        ~450/s), each on its own ``trader:<name>`` stream so adding or
        removing a participant never changes another's order flow."""
        config = self.config
        if rate_per_participant is None:
            rate_per_participant = config.orders_per_participant_per_s
        assignments = split_symbols(
            config.symbols,
            config.n_participants,
            config.subscriptions_per_participant or 1,
            self.rngs,
        )
        for participant, symbols in zip(self.participants, assignments):
            strategy = ZeroIntelligenceStrategy(
                symbols, config.market_order_fraction, config.cancel_fraction
            )
            agent = TradingAgent(
                self.sim, participant, strategy, rate_per_participant,
                self.rngs.stream(f"trader:{participant.name}"),
            )
            agent.start()
            self.agents.append(agent)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> None:
        """Run the cluster for ``duration_s`` of simulated time.

        May be called repeatedly to extend the run.  On the first call,
        clock sync is warm-started (the paper's experiments begin after
        hours of Huygens convergence) and periodic services start.
        """
        check_positive_finite("duration_s", duration_s)
        if self._ran_ns == 0:
            if self.clock_sync is not None:
                self.clock_sync.warm_start()
                self.clock_sync.start()
            self.exchange.start()
            if self.chaos is not None:
                self.chaos.arm()
            self.metrics.measure_start_true = self.sim.now
        until = self._ran_ns + int(duration_s * SECOND)
        self.sim.run(until=until)
        self._ran_ns = until
        self.metrics.measure_end_true = self.sim.now

    def measured_run(
        self,
        warmup_s: float,
        duration_s: float,
        rate_per_participant: Optional[float] = None,
    ) -> None:
        """The standard measurement protocol, in one call.

        Attach the default workload, warm up for ``warmup_s`` (DDP
        converges, queues prime), discard the transient with
        :meth:`reset_metrics`, then measure for ``duration_s``.  This
        is the protocol every benchmark hand-rolls; the sweep runner
        (:mod:`repro.exp`) executes exactly this in each worker.
        """
        self.add_default_workload(rate_per_participant)
        if warmup_s > 0:
            self.run(duration_s=warmup_s)
        self.reset_metrics()
        self.run(duration_s=duration_s)

    def result_payload(self) -> Dict[str, object]:
        """Everything a sweep records about a finished run, as one
        JSON-serializable dict.

        Closes out in-flight market data first (so unfairness ratios
        include partial-but-valid samples), then merges the metrics
        summary with the controller state, CPU report, and event count
        that the benchmarks read off the cluster directly.
        """
        md_finalized = self.finalize_metrics()
        payload: Dict[str, object] = dict(self.metrics.summary())
        payload["md_finalized_at_end"] = md_finalized
        payload["d_s_ns"] = int(self.exchange.current_sequencer_delay_ns())
        payload["d_h_ns"] = self.exchange.d_h
        payload["events_processed"] = self.sim.events_processed
        payload["cpu"] = self.cpu_report()
        payload["fairness_policy"] = self.config.fairness_policy
        payload["e2e_p99_us"] = self.metrics.e2e_summary().p99_us
        payload["hr_late_ratio"] = self.hr_late_ratio()
        return payload

    def finalize_metrics(self) -> int:
        """Close out in-flight market-data aggregation at end of run.

        Pieces still awaiting reports (a gateway was down when they
        arrived, or the run simply ended mid-flight) are finalized
        with whatever reports arrived; see
        :meth:`MetricsCollector.finalize_partial_md`.  Returns how many
        pieces it has closed in this window, so a repeated call (or
        :meth:`result_payload`) reads the same.
        """
        self.metrics.finalize_partial_md()
        return self.metrics.md_pieces_partial + self.metrics.md_pieces_unreported

    def reset_metrics(self) -> None:
        """Discard everything measured so far and start a fresh window.

        Benchmarks call this after a warm-up run so reported ratios and
        CPU usage reflect steady state (DDP converged, queues primed)
        rather than the cold-start transient.
        """
        self.metrics.reset_window(self.sim.now)
        self._cpu_window_start = self._ran_ns
        for host in self.network.hosts.values():
            host.cpu.reset()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def duration_ns(self) -> int:
        """Simulated time covered by run() calls so far."""
        return self._ran_ns

    def cpu_report(self) -> Dict[str, float]:
        """Average cores per VM type over the measurement window (Fig. 6b)."""
        elapsed = max(self._ran_ns - self._cpu_window_start, 1)
        gateway_cores = [h.cpu.cores_used(elapsed) for h in self.gateway_hosts]
        participant_cores = [h.cpu.cores_used(elapsed) for h in self.participant_hosts]
        return {
            "engine_cores": self.engine_host.cpu.cores_used(elapsed),
            "gateway_cores": sum(gateway_cores) / len(gateway_cores),
            "participant_cores": sum(participant_cores) / len(participant_cores),
        }

    def hr_late_ratio(self) -> float:
        """Late fraction across every gateway's outbound buffer.

        The gateway-side view of outbound unfairness (piece-gateway
        pairs late / handled), comparable across fairness policies.
        """
        handled = sum(g.hr_buffer.held_count for g in self.gateways)
        if handled == 0:
            return 0.0
        return sum(g.hr_buffer.late_count for g in self.gateways) / handled

    def participant(self, index: int) -> Participant:
        return self.participants[index]

    def gateway(self, index: int) -> Gateway:
        return self.gateways[index]

    def __repr__(self) -> str:
        return (
            f"CloudExCluster(participants={len(self.participants)}, "
            f"gateways={len(self.gateways)}, shards={len(self.exchange.shards)})"
        )

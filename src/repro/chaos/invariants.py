"""Invariant checking for chaos runs.

A fault-injection run is only evidence if something checks that the
exchange stayed *correct* while the faults happened.  The checks here
are exchange-level conservation and integrity laws that must hold no
matter which hosts crashed or which links stalled:

- **cash conservation** -- trading moves cash between accounts, never
  creates it;
- **share conservation** -- net shares per symbol stay zero;
- **no duplicate execution** -- one ``(participant, client_order_id)``
  is admitted past ROS dedup at most once, despite retries;
- **no overfill** -- an order never fills more than its quantity;
- **book integrity** -- no resting book is crossed after recovery;
- **monotone sequencer release** -- the sequencer's measured
  out-of-sequence count stays within bounds;
- **bounded fairness degradation** -- ground-truth inbound unfairness
  stays under the scenario's bound;
- **order-loss accounting** -- every submitted-but-unconfirmed order is
  explained (resting, still in flight, or *reported lost*), so RF=1
  crash scenarios show their losses instead of silently dropping them.

:class:`ChaosMonitor` taps the exchange's admit/trade listeners during
the run; :func:`check_invariants` turns the evidence into structured
:class:`Finding`\\ s for the chaos report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

VIOLATION = "violation"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One invariant-checker observation."""

    invariant: str
    severity: str  # VIOLATION or WARNING
    message: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "severity": self.severity,
            "message": self.message,
            "data": self.data,
        }


@dataclass(frozen=True)
class InvariantBounds:
    """Scenario-tunable limits for the soft invariants."""

    #: Measured out-of-sequence releases allowed before a violation.
    max_out_of_sequence: int = 0
    #: Ground-truth inbound unfairness ratio allowed before a warning.
    max_unfairness_true: float = 1.0


class ChaosMonitor:
    """Collects per-order evidence while the cluster runs.

    Installing the monitor hooks the exchange's ``admit_listener`` and
    ``trade_listener`` and snapshots the portfolio's total cash, which
    is the conservation baseline (trading never changes it).
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        #: (participant, client_order_id) -> times admitted past dedup.
        self.admits: Dict[Tuple[str, int], int] = {}
        #: (participant, client_order_id) -> submitted quantity.
        self.quantities: Dict[Tuple[str, int], int] = {}
        #: (participant, client_order_id) -> shares filled.
        self.fills: Dict[Tuple[str, int], int] = {}
        self.expected_cash = cluster.portfolio.total_cash()
        exchange = cluster.exchange
        if exchange.admit_listener is not None or exchange.trade_listener is not None:
            raise RuntimeError("exchange listeners already installed")
        exchange.admit_listener = self._on_admit
        exchange.trade_listener = self._on_trade

    def _on_admit(self, order) -> None:
        key = (order.participant_id, order.client_order_id)
        self.admits[key] = self.admits.get(key, 0) + 1
        self.quantities[key] = order.quantity

    def _on_trade(self, trade) -> None:
        for key in (
            (trade.buyer, trade.buy_client_order_id),
            (trade.seller, trade.sell_client_order_id),
        ):
            self.fills[key] = self.fills.get(key, 0) + trade.quantity


def check_invariants(
    cluster, monitor: ChaosMonitor, bounds: InvariantBounds = InvariantBounds()
) -> List[Finding]:
    """Run every invariant check; returns findings in a fixed order."""
    findings: List[Finding] = []
    findings.extend(_check_conservation(cluster, monitor))
    findings.extend(_check_duplicates(monitor))
    findings.extend(_check_overfills(monitor))
    findings.extend(_check_books(cluster))
    findings.extend(_check_sequencing(cluster, bounds))
    findings.extend(_check_fairness(cluster, bounds))
    findings.extend(_check_order_loss(cluster, monitor))
    findings.extend(_check_abandoned(cluster))
    return findings


def _check_conservation(cluster, monitor: ChaosMonitor) -> List[Finding]:
    findings = []
    total_cash = cluster.portfolio.total_cash()
    if total_cash != monitor.expected_cash:
        findings.append(
            Finding(
                "cash_conservation", VIOLATION,
                f"total cash changed by {total_cash - monitor.expected_cash} "
                f"(was {monitor.expected_cash}, now {total_cash})",
                {"expected": monitor.expected_cash, "actual": total_cash},
            )
        )
    for symbol in cluster.config.symbols:
        net = cluster.portfolio.total_shares(symbol)
        if net != 0:
            findings.append(
                Finding(
                    "share_conservation", VIOLATION,
                    f"net shares of {symbol} is {net}, expected 0",
                    {"symbol": symbol, "net_shares": net},
                )
            )
    return findings


def _check_duplicates(monitor: ChaosMonitor) -> List[Finding]:
    findings = []
    for key, count in monitor.admits.items():
        if count > 1:
            findings.append(
                Finding(
                    "duplicate_execution", VIOLATION,
                    f"order {key[1]} of {key[0]} passed ROS dedup {count} times",
                    {"participant": key[0], "client_order_id": key[1], "admits": count},
                )
            )
    return findings


def _check_overfills(monitor: ChaosMonitor) -> List[Finding]:
    findings = []
    for key, filled in monitor.fills.items():
        quantity = monitor.quantities.get(key)
        if quantity is None:
            # Operator seed liquidity never passes ingress; its fills
            # have no admission record to compare against.
            continue
        if filled > quantity:
            findings.append(
                Finding(
                    "overfill", VIOLATION,
                    f"order {key[1]} of {key[0]} filled {filled} > quantity {quantity}",
                    {
                        "participant": key[0], "client_order_id": key[1],
                        "filled": filled, "quantity": quantity,
                    },
                )
            )
    return findings


def _check_books(cluster) -> List[Finding]:
    findings = []
    for shard in cluster.exchange.shards:
        for symbol, book in shard.core.books.items():
            bid, ask = book.best_bid(), book.best_ask()
            if bid is not None and ask is not None and bid >= ask:
                findings.append(
                    Finding(
                        "book_integrity", VIOLATION,
                        f"{symbol} book is crossed: bid {bid} >= ask {ask}",
                        {"symbol": symbol, "best_bid": bid, "best_ask": ask},
                    )
                )
    return findings


def _check_sequencing(cluster, bounds: InvariantBounds) -> List[Finding]:
    out_of_sequence = cluster.metrics.out_of_sequence
    if out_of_sequence > bounds.max_out_of_sequence:
        return [
            Finding(
                "monotone_release", VIOLATION,
                f"{out_of_sequence} orders released out of timestamp order "
                f"(bound {bounds.max_out_of_sequence})",
                {
                    "out_of_sequence": out_of_sequence,
                    "bound": bounds.max_out_of_sequence,
                    "released": cluster.metrics.orders_released,
                },
            )
        ]
    return []


def _check_fairness(cluster, bounds: InvariantBounds) -> List[Finding]:
    ratio = cluster.metrics.inbound_unfairness_ratio_true()
    if ratio > bounds.max_unfairness_true:
        return [
            Finding(
                "bounded_fairness", WARNING,
                f"ground-truth inbound unfairness {ratio:.4f} exceeds "
                f"bound {bounds.max_unfairness_true:.4f}",
                {"ratio": ratio, "bound": bounds.max_unfairness_true},
            )
        ]
    return []


def _check_order_loss(cluster, monitor: ChaosMonitor) -> List[Finding]:
    """Every submitted-but-unconfirmed order must be accounted for.

    An unconfirmed order the engine *admitted* executed or rests in a
    book -- only its confirmation was lost (warning).  One still in a
    sequencer is in flight.  Anything else vanished before reaching the
    engine: that is real order loss and must be reported, not silent.
    """
    findings = []
    unconfirmed = cluster.metrics.unconfirmed_orders()
    if not unconfirmed:
        return findings
    in_sequencer = set()
    for shard in cluster.exchange.shards:
        for kind, payload in shard.sequencer.pending_items():
            if kind == "order":
                in_sequencer.add((payload.participant_id, payload.client_order_id))
    executed, lost = [], []
    for key in unconfirmed:
        if key in in_sequencer:
            continue
        (executed if key in monitor.admits else lost).append(key)
    if executed:
        findings.append(
            Finding(
                "confirmation_loss", WARNING,
                f"{len(executed)} orders reached the engine but their "
                f"confirmations never reached the participant",
                {"orders": [list(key) for key in sorted(executed)]},
            )
        )
    if lost:
        findings.append(
            Finding(
                "order_loss", VIOLATION,
                f"{len(lost)} submitted orders vanished: never reached "
                f"the engine, not in flight",
                {"orders": [list(key) for key in sorted(lost)]},
            )
        )
    return findings


def _check_abandoned(cluster) -> List[Finding]:
    abandoned = sum(p.orders_abandoned for p in cluster.participants)
    if abandoned:
        return [
            Finding(
                "retries_exhausted", WARNING,
                f"{abandoned} orders abandoned after exhausting retries",
                {"orders_abandoned": abandoned},
            )
        ]
    return []

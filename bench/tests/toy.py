"""A three-layer call tree with known busy times, for the tracer test."""

import time


def _busy(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


class Leaf:
    def work(self) -> None:
        _busy(200_000)


class Middle:
    def __init__(self) -> None:
        self.leaf = Leaf()

    def step(self) -> None:
        _busy(300_000)
        self.leaf.work()
        self.leaf.work()


class Root:
    def __init__(self) -> None:
        self.middle = Middle()

    def run(self) -> None:
        _busy(100_000)
        for _ in range(3):
            self.middle.step()
        Leaf().work()

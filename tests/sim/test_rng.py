"""Tests for deterministic named random streams."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry, derive_seed


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RngRegistry(7).stream("link:x")
        b = RngRegistry(7).stream("link:x")
        assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))

    def test_different_seeds_differ(self):
        a = RngRegistry(7).stream("link:x")
        b = RngRegistry(8).stream("link:x")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        a = reg.stream("link:x")
        b = reg.stream("link:y")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_stream_is_cached(self):
        reg = RngRegistry(7)
        assert reg.stream("s") is reg.stream("s")

    def test_creation_order_does_not_matter(self):
        reg1 = RngRegistry(3)
        reg1.stream("a")
        x = reg1.stream("b").integers(0, 10**9)
        reg2 = RngRegistry(3)
        y = reg2.stream("b").integers(0, 10**9)  # no "a" created first
        assert x == y


class TestFork:
    def test_fork_is_independent(self):
        reg = RngRegistry(7)
        fork = reg.fork(1)
        a = reg.stream("s").integers(0, 10**9, 8)
        b = fork.stream("s").integers(0, 10**9, 8)
        assert list(a) != list(b)

    def test_fork_deterministic(self):
        x = RngRegistry(7).fork(5).stream("s").integers(0, 10**9)
        y = RngRegistry(7).fork(5).stream("s").integers(0, 10**9)
        assert x == y


class TestValidation:
    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")  # type: ignore[arg-type]

    def test_streams_are_numpy_generators(self):
        assert isinstance(RngRegistry(1).stream("s"), np.random.Generator)


class TestDeriveSeed:
    def test_identity_keyed_not_order_keyed(self):
        a1 = derive_seed(7, "table1|shards=1|rep0")
        a2 = derive_seed(7, "table1|shards=1|rep0")
        b = derive_seed(7, "table1|shards=2|rep0")
        assert a1 == a2
        assert a1 != b

    def test_master_seed_separates_universes(self):
        assert derive_seed(1, "k") != derive_seed(2, "k")

    def test_fits_in_63_bits(self):
        for key in ("a", "b", "c", "d"):
            seed = derive_seed(3, key)
            assert 0 <= seed < 2**63

    def test_matches_registry_keying_scheme(self):
        # Built from the same (master, blake2(name)) SeedSequence shape
        # as RngRegistry.stream, so it inherits the same isolation
        # guarantees; the registry accepts the derived seed directly.
        registry = RngRegistry(derive_seed(0, "some-task"))
        assert registry.stream("link:a->b") is registry.stream("link:a->b")

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            derive_seed("7", "key")

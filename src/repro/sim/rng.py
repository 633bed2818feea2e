"""Named, deterministic random-number streams.

Every stochastic component in the simulator (each network link, each
trading bot, each clock) draws from its own named substream derived from
a single master seed.  Two properties follow:

1. **Reproducibility** -- the same master seed yields byte-identical
   runs, independent of the order in which components are constructed.
2. **Isolation** -- adding a new component (a new link, say) does not
   perturb the draws seen by existing components, because streams are
   keyed by stable names rather than by construction order.

Streams are ``numpy.random.Generator`` instances seeded via
``numpy.random.SeedSequence`` spawned with a stable hash of the stream
name.  The same name-to-entropy keying is exposed as
:func:`derive_seed` for the sweep runner (:mod:`repro.exp`), which
needs per-task seeds that depend only on the task's identity, never on
enumeration or execution order.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, Iterator

import numpy as np

#: Rows per block of a data-plane stream (link delays, trader gaps and
#: ZI rows, engine service times).  Like ``PoissonArrivalStream.chunk``
#: it is part of the determinism contract (DESIGN §4.11), not a setting.
DRAW_BLOCK = 64


def block_stream(draw_block: Callable[[], Iterable]) -> Iterator:
    """Serve the rows of ``draw_block()`` one ``next`` at a time, for ever.

    A block is drawn when a row is asked for and none is left -- never at
    construction -- so a consumer that never asks draws nothing.  The
    iterator is the buffer: whoever owns the stream keeps it.
    """
    while True:
        yield from draw_block()


def _name_to_entropy(name: str) -> int:
    """Map a stream name to a stable 128-bit integer.

    Python's builtin ``hash`` is salted per-process, so we use BLAKE2
    for a digest that is stable across runs and machines.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "big")


def derive_seed(master_seed: int, key: str) -> int:
    """A 63-bit seed derived from ``(master_seed, key)``.

    Keyed exactly like :meth:`RngRegistry.stream` substreams -- via
    ``SeedSequence([master_seed, blake2(key)])`` -- so the result
    depends only on the pair's *identity*: two processes (or two
    worker pools with different job counts) deriving the seed for the
    same key always agree, and adding new keys never perturbs existing
    ones.  Used by :mod:`repro.exp` to give every sweep task its own
    config seed.
    """
    if not isinstance(master_seed, int):
        raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
    seq = np.random.SeedSequence([master_seed, _name_to_entropy(key)])
    return int(seq.generate_state(1, np.uint64)[0]) >> 1


class RngRegistry:
    """Factory and cache for named random streams.

    Parameters
    ----------
    master_seed:
        The seed controlling the whole simulation.  Streams produced by
        registries with different master seeds are unrelated.

    Examples
    --------
    >>> rngs = RngRegistry(7)
    >>> link_rng = rngs.stream("link:gw0->engine")
    >>> bot_rng = rngs.stream("trader:42")
    >>> rngs.stream("link:gw0->engine") is link_rng
    True
    """

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, int):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        self.master_seed = master_seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            seq = np.random.SeedSequence([self.master_seed, _name_to_entropy(name)])
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RngRegistry":
        """Return an independent registry (e.g. for a repeated trial).

        The fork's streams are unrelated to the parent's even for equal
        stream names, which is what repeated-trial benchmarks need.
        """
        return RngRegistry((self.master_seed * 1_000_003 + salt) & (2**63 - 1))

    def __repr__(self) -> str:
        return f"RngRegistry(master_seed={self.master_seed}, streams={len(self._streams)})"

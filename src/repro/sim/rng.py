"""Named, independently seeded random streams.

Reproducibility discipline: a simulation owns a single *master seed*;
every component that needs randomness asks the registry for a stream by
*name*.  Stream seeds are derived by hashing ``(master_seed, name)``, so

* the same master seed always yields the same stream for a given name,
* streams are independent of the *order* in which they are requested,
* adding a new randomized component does not perturb existing streams.

This is the standard trick used by large parallel simulations to keep
per-component randomness stable under refactoring.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, name)``.

    Uses BLAKE2b for speed and stability across Python versions (unlike
    ``hash()``, which is salted per process).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RngStream(random.Random):
    """A :class:`random.Random` tagged with its name for debugging."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(seed)
        self.name = name
        self.seed_value = seed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream({self.name!r}, seed={self.seed_value})"


class RngRegistry:
    """Factory and cache of named random streams for one simulation."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = RngStream(name, derive_seed(self.master_seed, name))
        self._streams[name] = stream
        return stream

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """Draw one uniform sample from the named stream."""
        return self.stream(name).uniform(lo, hi)

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Draw one element from ``options`` using the named stream.

        Sequences are indexed directly — ``random.Random.choice`` draws
        the index from ``len(options)`` either way, so skipping the
        historical per-draw list copy changes no stream's output.
        """
        if not isinstance(options, (list, tuple)):
            options = list(options)
        return self.stream(name).choice(options)

    def shuffle(self, name: str, items: Iterable[T]) -> List[T]:
        """Return a shuffled copy of ``items`` using the named stream."""
        out = list(items)
        self.stream(name).shuffle(out)
        return out

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose master seed derives from ``name``.

        Used by sweep harnesses: one registry per experiment repetition,
        all reproducible from the top-level seed.
        """
        return RngRegistry(derive_seed(self.master_seed, f"fork:{name}"))


__all__ = ["RngRegistry", "RngStream", "derive_seed"]

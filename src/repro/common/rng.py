"""Deterministic random-number streams.

Simulation components that need stochastic behaviour (cache interference
jitter, scheduler noise) each draw from a *named* stream derived from a root
seed, so adding a new consumer never perturbs the numbers seen by existing
ones.  This is the standard trick for reproducible discrete-event simulators.
"""

from __future__ import annotations

import random

from repro.common.hashing import sha256


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from a root seed and a path of stream names."""
    digest = sha256()
    digest.update(str(root_seed).encode("ascii"))
    for name in names:
        digest.update(b"/")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class RngStream:
    """A named, independently-seeded random stream.

    Wraps :class:`random.Random` so consumers get the familiar API while the
    seeding discipline stays centralized.
    """

    def __init__(self, root_seed: int, *names: str):
        self.names = names
        self._random = random.Random(derive_seed(root_seed, *names))

    def child(self, *names: str) -> "RngStream":
        """Return a sub-stream; children are independent of the parent."""
        seed = int.from_bytes(
            sha256(
                ("/".join(self.names + names)).encode("utf-8")
            ).digest()[:8],
            "big",
        )
        stream = RngStream.__new__(RngStream)
        stream.names = self.names + names
        stream._random = random.Random(seed)
        return stream

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def random(self) -> float:
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

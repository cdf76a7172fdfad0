"""Deterministic random number generation helpers.

Everything stochastic in the library (telemetry generation, workload
generation, replay sampling, network initialisation, exploration) draws from
``numpy.random.Generator`` objects produced by an :class:`RngFactory`.  The
factory derives independent child streams from a root seed and a string key,
so two subsystems never share a stream and results are reproducible even when
the call order between subsystems changes.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, "RngFactory", None]


def _key_to_int(key: str) -> int:
    """Map a string key to a stable 64-bit integer."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngFactory:
    """Derive independent, reproducible random streams from one root seed.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` gives a non-deterministic root (only sensible in
        interactive exploration; library code always passes a seed).

    Examples
    --------
    A stream depends only on the root seed and its key, not on which other
    streams were made before it:

    >>> draws = RngFactory(1234).stream("telemetry").random(3)
    >>> factory = RngFactory(1234)
    >>> _ = factory.stream("workload")
    >>> bool((factory.stream("telemetry").random(3) == draws).all())
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed_seq = np.random.SeedSequence(seed)
        self.seed = seed

    def stream(self, key: str) -> np.random.Generator:
        """Return a fresh generator for ``key``.

        The stream depends only on the root seed and ``key`` — not on how many
        other streams were created before it.
        """
        child = np.random.SeedSequence(
            entropy=self._seed_seq.entropy, spawn_key=(_key_to_int(key),)
        )
        return np.random.default_rng(child)

    def child(self, key: str) -> "RngFactory":
        """Return a sub-factory namespaced under ``key``."""
        entropy = self._seed_seq.entropy
        if entropy is None:
            return RngFactory(None)
        mixed = (int(entropy) ^ _key_to_int(key)) % (2**63)
        return RngFactory(mixed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed!r})"


def as_generator(seed: SeedLike, key: str = "default") -> np.random.Generator:
    """Coerce ``seed`` (int, Generator, RngFactory or None) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngFactory):
        return seed.stream(key)
    return np.random.default_rng(seed)

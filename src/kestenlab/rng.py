"""Root-seeded random streams with counter-based substream derivation."""
from __future__ import annotations

import numpy as np
# numpy loads its random package on first attribute access; load it with
# this package, as every stage draws from it
import numpy.random  # noqa: F401


def substream(root_seed: int, *key: int) -> np.random.Generator:
    """Independent generator identified by (root_seed, key).

    Substreams are derived through SeedSequence spawn keys, so any subset
    can be constructed in any order (or concurrently) and the draws are
    reproducible from the root seed alone.
    """
    ss = np.random.SeedSequence(int(root_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng) -> np.random.Generator:
    """Accept either a Generator or a plain integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return substream(int(rng))

"""Deterministic random streams.

One user-facing seed fans out into named substreams so that adding a new
consumer of randomness never shifts the draws of existing ones. Substream
identity is the CRC32 of the name, which is stable across platforms and
Python versions (unlike hash()).
"""

from __future__ import annotations

import zlib

import numpy as np
# numpy loads numpy.random lazily; load it here, not in the first substream
import numpy.random  # noqa: F401

__all__ = ["substream"]


def substream(seed: int, *names: str) -> np.random.Generator:
    """Return a Generator for the substream identified by ``names``.

    Args:
        seed: Top-level run seed.
        names: One or more labels, e.g. ("metric", "pair-7"). The same
            (seed, names) always yields the same stream.

    Returns:
        An independent numpy Generator.
    """
    if not names:
        raise ValueError("substream needs at least one name")
    keys = [zlib.crc32(name.encode("utf-8")) for name in names]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *keys]))

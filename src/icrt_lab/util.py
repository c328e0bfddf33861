"""Shared helpers: seeded substreams and deterministic serialization."""
from __future__ import annotations

import json

import numpy as np

# Fixed substream ids: adding a new consumer must append, never renumber,
# so existing seeds keep producing identical samples.
SUBSTREAMS = {"atoms": 0, "cuts": 1, "glues": 2, "angles": 3, "fields": 4}


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named stage of the pipeline."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    key = SUBSTREAMS[name]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def keyed_generator(*key: int) -> np.random.Generator:
    """Generator keyed by an integer tuple (platform-stable)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, stable float repr, byte-identical reruns."""
    return json.dumps(obj, sort_keys=True, indent=2)


def fmt17(x: float) -> str:
    """17 significant digits, enough to round-trip any float."""
    return format(float(x), ".17g")

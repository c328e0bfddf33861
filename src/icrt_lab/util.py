"""Shared helpers: seeded substreams, keyed normals and canonical JSON."""
from __future__ import annotations

import json
import operator

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


# numpy's SeedSequence hash: hashmix k of the pool mix xors _A[k] and then
# multiplies by _A[k + 1]; word k of `generate_state` does so with _B
def _powers(init: int, mult: int, n: int) -> np.ndarray:
    return np.cumprod(np.r_[init, [mult] * (n - 1)].astype(np.uint32), dtype=np.uint32)


_A, _B = _powers(0x43B0D7E5, 0x931E8875, 17), _powers(0x8B51F9DD, 0x58F38DED, 9)
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_PCG64 = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}


def _hashmix(v, c, into=None):
    """hashmix of v by the constants c, then mix(into, that) given `into`."""
    v = (v ^ c[:-1]) * c[1:]
    v ^= v >> 16
    if into is not None:
        v = into * np.uint32(0xCA01F9DD) - v * np.uint32(0x4973F715)
        v ^= v >> 16
    return v


def keyed_normals(keys, counts) -> np.ndarray:
    """`concatenate([keyed_generator(*k).standard_normal(m) ...])` over
    zip(keys, counts), bit for bit, with no generator built per key (keys
    and counts of different lengths raise a ValueError): numpy's
    SeedSequence algorithm (`mix_entropy` into a 4-word pool, then
    `generate_state`) runs once over the keys of each length in uint32
    arrays, and PCG64's seeding (`pcg64_set_seed`: inc = 2 seq + 1, two LCG
    steps) on Python ints sets one reused PCG64 per key.  Exact because
    numpy keeps the SeedSequence and PCG64 streams fixed (NEP 19)."""
    keys = [tuple(map(operator.index, k)) for k in keys]
    if any(v < 0 for k in keys for v in k):
        raise ValueError("key entries must be nonnegative")
    words = [  # each int in 32-bit words, lowest first
        [v >> s & 0xFFFFFFFF for v in k for s in range(0, v.bit_length() or 1, 32)]
        for k in keys
    ]
    seeds = np.empty((len(keys), 4), np.uint64)
    for size in {len(w) for w in words}:
        rows = [j for j, w in enumerate(words) if len(w) == size]
        ent = np.array([words[j] for j in rows], np.uint32)
        a = _A if size <= 4 else _powers(0x43B0D7E5, 0x931E8875, 4 * size + 1)
        pool = _hashmix(np.pad(ent[:, :4], [(0, 0), (0, 4 - min(size, 4))]), a[:5])
        for i in range(4):  # no pool word is mixed into itself
            dst = [d for d in range(4) if d != i]
            pool[:, dst] = _hashmix(pool[:, [i]], a[3 * i + 4 : 3 * i + 8], pool[:, dst])
        for t in range(4, size):  # entropy past the pool
            pool = _hashmix(ent[:, [t]], a[4 * t : 4 * t + 5], pool)
        w = _hashmix(np.tile(pool, 2), _B).astype(np.uint64)
        seeds[rows] = w[:, 0::2] | w[:, 1::2] << np.uint64(32)  # little-endian pairs
    gen, out = np.random.Generator(np.random.PCG64(0)), [np.empty(0)]
    for (s0, s1, i0, i1), m in zip(seeds.tolist(), counts, strict=True):
        inc = (i0 << 65 | i1 << 1 | 1) & _M128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
        gen.bit_generator.state = dict(_PCG64, state={"state": state, "inc": inc})
        out.append(gen.standard_normal(m))
    return np.concatenate(out)


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, stable float repr, byte-identical reruns."""
    return json.dumps(obj, sort_keys=True, indent=2)


def fmt17(x: float) -> str:
    """17 significant digits, enough to round-trip any float."""
    return format(float(x), ".17g")

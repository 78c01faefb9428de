"""Counter-based random numbers on numpy's Philox4x64-10 (Salmon et al., SC'11).

A draw is a pure function of (seed, particle id, step, stream, block): key
(seed, 0), counter (id, step, stream << 20 | block, 0) + 1 (numpy increments
before each block), so it does not depend on the other ids drawn, chunking,
thread count or id order.  A run of consecutive ids is one ``random_raw``
call; words 0, 1 of an id's block give two uniforms, Box-Muller two normals.
"""

import hashlib

import numpy as np

STREAM_PATH, STREAM_INIT, STREAM_AUX = 0, 1, 2  # stream tags, above the block bits
_BLOCK_BITS = 20  # blocks per (stream, step) slot: 2**20


def _uniform_pair(seed, particle_ids, step, stream, block, count=2):
    """Two uniforms per id (the first ``count`` of them): odd multiples of
    2**-53, so strictly inside (0, 1)."""
    if not 0 <= block < 1 << _BLOCK_BITS:
        raise ValueError("block index out of range")
    ids = np.asarray(particle_ids, dtype=np.uint64).reshape(-1)
    if ids.size and ids[0] <= ids[-1] and (np.diff(ids) == 1).all():
        runs, inv = [ids], None
    else:  # permuted, repeated or gapped ids: draw the runs of the unique ids
        ids, inv = np.unique(ids, return_inverse=True)
        runs = np.split(ids, np.flatnonzero(np.diff(ids) != 1) + 1)
    slot = int(step) << 64 | (stream << _BLOCK_BITS | block) << 128  # counter words 1, 2
    raw = [np.random.Philox(key=int(seed) % 2**64, counter=int(run[0]) | slot)
           .random_raw(4 * run.size) for run in runs if run.size] or [np.empty(0, np.uint64)]
    words = (raw[0] if len(raw) == 1 else np.concatenate(raw)).reshape(-1, 4)
    words = words if inv is None else words[inv]
    # one column at a time: ufuncs crawl over a strided (n, 2) view
    return [((words[:, k] >> 11) | 1) * 2.0**-53 for k in range(count)]


def normal_pair(seed, particle_ids, step, stream=STREAM_PATH, block=0):
    """Two independent standard normals per particle for one counter slot."""
    u1, u2 = _uniform_pair(seed, particle_ids, step, stream, block)
    rad = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * np.pi) * u2
    return rad * np.cos(ang), rad * np.sin(ang)


def normals(seed, particle_ids, step, m, stream=STREAM_PATH):
    """(len(particle_ids), m) standard normals for one (step, stream) slot."""
    pairs = [normal_pair(seed, particle_ids, step, stream, j) for j in range((m + 1) // 2)]
    return np.stack([z for pair in pairs for z in pair][:m], axis=1)


def noncentral_chi2(seed, particle_ids, step, d, root_lam, stream=STREAM_PATH):
    """(Z_1 + root_lam)^2 + Z_2^2 + ... + Z_d^2 for Z = ``normals(seed,
    particle_ids, step, d)``, equal to that sum up to rounding.

    The squares of a Box-Muller pair sum to its squared radius -2 log u1, so
    (Z_1 + r)^2 + Z_2^2 = R^2 + r (2 Z_1 + r), a further full pair adds its
    R^2 without an angle, and only Z_1 and an unpaired last Z_d are formed."""
    u1, u2 = _uniform_pair(seed, particle_ids, step, stream, 0)
    rad2 = -2.0 * np.log(u1)
    z1 = np.sqrt(rad2) * np.cos((2.0 * np.pi) * u2)
    if d == 1:
        return (z1 + root_lam) ** 2
    total = rad2 + root_lam * (2.0 * z1 + root_lam)
    for block in range(1, d // 2):
        total -= 2.0 * np.log(_uniform_pair(seed, particle_ids, step, stream, block, 1)[0])
    if d % 2:
        total += normal_pair(seed, particle_ids, step, stream, d // 2)[0] ** 2
    # the sum is >= 0; cancellation near 0 must not round it below
    return np.maximum(total, 0.0)


def uniforms(seed, particle_ids, step, m, stream=STREAM_AUX):
    """(len(particle_ids), m) uniforms in (0, 1) for one counter slot."""
    pairs = [_uniform_pair(seed, particle_ids, step, stream, j) for j in range((m + 1) // 2)]
    return np.stack([u for pair in pairs for u in pair][:m], axis=1)


def derive_seed(master_seed: int, stage: str) -> int:
    """Stable 64-bit stage seed: BLAKE2b of the stage name keyed by the master seed."""
    key = (int(master_seed) % 2**64).to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(stage.encode(), digest_size=8, key=key).digest(), "little")

"""Stream canary: the seeded primitives that decide every resampled and simulated bit.

Each digest is the sha256 of a stream's bytes (indices as little-endian int64,
floats as float64), recorded with numpy 2.4.6 on x86_64 before the resample
loop drew its with-replacement indices in chunks. A failure names the moved
primitive, so a numpy that changes a stream fails here, by name, rather than
as a float difference in some bootstrap case.
"""

import hashlib

import numpy as np
import pytest

from quadbin.data import _rng, _standard_normal
from quadbin.stats import REPLACEMENT, SUBSAMPLE, BootstrapSpec, resample_indices


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# (mode, master seed, stream, b, pool) -> digest of the index set
INDEX_SETS = {
    (SUBSAMPLE, 3, 0, 0, 950): "82e591b4a12b185b32c136e6c2e090fde86fe98c04647e255b86ef40c2e44393",
    (SUBSAMPLE, 3, 0, 399, 40000): "7197208cb2ebe6f95c27dea4b9a4b0054e95a0f64a1a562c17022bcabbf8e7a1",
    (SUBSAMPLE, 7, 2, 17, 40000): "ebe8679ff3b1095b8236942fe8454a421aa87871c7dddfb279e813676358ce42",
    (SUBSAMPLE, 11, 1, 5, 10001): "0ad75e00e66a20bae9d68fcb8d7c87673265ef8cfc6d28abc1b81458eff62958",
    (REPLACEMENT, 3, 0, 0, 950): "03c918652b07d6a9cf594331ae1a50dcec8f2538b8a0c20aff2fd7f1a1fb5000",
    (REPLACEMENT, 3, 0, 399, 40000): "6ef1195a9884e27ff56fb49e36fbce0f209ab615df461a9347a0066dc5750a3a",
    (REPLACEMENT, 7, 2, 17, 40000): "9839ea8dbcbd5e499d5d4ea514bac4b9ddd43990a0961e862403899624646ef8",
    (REPLACEMENT, 11, 1, 5, 10001): "5c3302008605272aea061866a344c3a155ce8ae39c3c1b15936ff5e8e46a54d0",
}


@pytest.mark.parametrize("key", list(INDEX_SETS), ids=lambda k: "-".join(map(str, k)))
def test_resample_indices(key):
    mode, seed, stream, b, pool = key
    idx = resample_indices(BootstrapSpec(None, 2, seed, mode), pool, b, stream)
    assert digest(idx.astype("<i8")) == INDEX_SETS[key], f"resample_indices ({mode}) stream moved"


@pytest.mark.parametrize("seed, n, want", [
    (1, 50000, "fae7779b43719d559d0cd6773a8e07b56bb10efc8a71c7744b9a74ed6f8d4307"),
    (9, 7, "af7bc0934dd4d6437617537307c787d801d62577b3f7e42902ded493bbcf3676"),
])
def test_standard_normal(seed, n, want):
    assert digest(_standard_normal(_rng(seed), n).astype("<f8")) == want, "data._standard_normal stream moved"


@pytest.mark.parametrize("seed, half_width, n, want", [
    (1, np.pi, 50000, "bf0843bf821f48f0b39ae20bdf4824f1a2ee6b46da8442e38257ebffb60d5385"),
    (4, 0.3, 7, "ace8e02c5f8979a770c5ddbf3d4a856988e66b154bebcc355ea8f2d39ca2a728"),
])
def test_generator_uniform(seed, half_width, n, want):
    u = np.random.default_rng([seed]).uniform(-half_width, half_width, n)
    assert digest(u.astype("<f8")) == want, "Generator.uniform stream moved"


@pytest.mark.parametrize("size", [10001, 24576, 40000])
@pytest.mark.parametrize("chunk", [4095, 8192])
@pytest.mark.parametrize("pool", [3, 950, 40000, 2**31 - 1, 2**33])
def test_chunked_integers_equal_one_call(pool, chunk, size):
    """Generator.integers(0, pool, size) drawn in chunks gives the one call's stream, bit for bit."""
    whole = np.random.default_rng([5, 1, 2]).integers(0, pool, size)
    rng = np.random.default_rng([5, 1, 2])
    chunked = np.concatenate([rng.integers(0, pool, min(chunk, size - i)) for i in range(0, size, chunk)])
    assert np.array_equal(chunked, whole), "Generator.integers drawn in chunks differs from one call"

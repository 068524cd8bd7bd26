"""Stream addressing: determinism, independence, and input validation."""

import numpy as np
import pytest

from zomirror import rng


def test_same_path_reproduces_draws():
    a = rng.stream(13, "x", 7).standard_normal(16)
    b = rng.stream(13, "x", 7).standard_normal(16)
    assert np.array_equal(a, b)


def test_pinned_uniforms():
    # Frozen contract: changing the hashing or generator breaks downstream
    # reproducibility pins, so the first draws are asserted exactly.
    got = rng.stream(42, "demo").uniform(size=3)
    expected = [0.5620942174604182, 0.22851759020954365, 0.7327060195793772]
    assert got.tolist() == expected


def test_pinned_derived_seeds():
    assert rng.derive_seed(0, "zo-ada-expgrad", 0) == 7564625091973894715
    assert rng.derive_seed(42, "a", 7) == 4377509973074601049


def test_derive_seed_range():
    for parts in ((0,), (1, 2, 3), ("a", "b"), (2**62, "tail")):
        s = rng.derive_seed(*parts)
        assert 0 <= s < 2**63


def test_path_order_matters():
    assert rng.stream(1, 2).uniform() != rng.stream(2, 1).uniform()


def test_length_prefixing_prevents_concatenation_collisions():
    assert rng.stream("ab", "c").uniform() != rng.stream("a", "bc").uniform()


def test_int_and_string_forms_share_encoding():
    # Path elements encode via their decimal text, so 1 and "1" are the
    # same address; callers keep positions mono-typed by convention.
    assert rng.derive_seed(1) == rng.derive_seed("1")
    assert rng.stream(1).uniform() == rng.stream("1").uniform()


def test_numpy_integers_accepted():
    assert rng.derive_seed(np.int64(5), "t") == rng.derive_seed(5, "t")


def test_rejects_non_int_non_str_parts():
    with pytest.raises(TypeError):
        rng.stream(1.5)
    with pytest.raises(TypeError):
        rng.derive_seed(b"bytes")


def test_distinct_paths_decorrelate():
    a = rng.stream(0, "u").standard_normal(2000)
    b = rng.stream(0, "v").standard_normal(2000)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.1


def test_rekey_matches_stream():
    # One generator, partly drawn between re-keys (whole and half-used
    # 64-bit words, a buffered uint32), must restart on each key's stream.
    gen = rng.stream("scratch")
    paths = [(seed, "t", it) for seed in range(20) for it in range(15)]
    paths += [(np.int64(7), np.uint32(3)), (np.int8(-2), "x"), (2**62, "tail"), ()]
    # Keys whose high 64-bit word has its top bit set, and keys without.
    assert {rng._digest(p)[15] >= 0x80 for p in paths} == {False, True}
    for i, parts in enumerate(paths):
        gen.bytes(i % 5)
        if i % 3:
            gen.integers(2**32, dtype=np.uint32)
        assert rng.rekey(gen, *parts) is gen
        fresh = rng.stream(*parts)
        assert gen.bytes(13) == fresh.bytes(13)
        assert np.array_equal(gen.integers(2**63, size=5), fresh.integers(2**63, size=5))
        assert gen.standard_normal(3).tolist() == fresh.standard_normal(3).tolist()

"""The pure-Python PCG64 against NumPy's ``default_rng``, draw for draw.

NumPy is a test oracle only: the tests that compare with it skip where
it is not installed, and the range and seed checks run everywhere.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.util.rng import DEFAULT_SEED, Pcg64, make_rng

SEEDS = [0, 1, 7, 42, 601, 1999, DEFAULT_SEED, 2**63 - 1, 2**64 + 5, 2**100 + 3]
_seeds = random.Random(2026)
SEEDS += [_seeds.getrandbits(63) for _ in range(20)]
# more than SeedSequence's four pool words of entropy
LONG_SEEDS = [2**200 + 12345, 2**300 - 1]

#: high - low; 2**31 + 1 and 3 * 2**30 reject often, so the rejection loop runs
SPANS = [1, 2, 6, 100, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


@pytest.fixture
def np():
    return pytest.importorskip("numpy")


def draw_both(np, seed: int, count: int) -> tuple[list, list]:
    """*count* interleaved random()/integers() draws from the port and NumPy."""
    ours, numpy = make_rng(seed), np.random.default_rng(seed)
    script = random.Random(seed)
    got, want = [], []
    for _ in range(count):
        if script.random() < 0.3:
            got.append(ours.random())
            want.append(numpy.random())
            continue
        span = script.choice(SPANS + [script.randrange(1, 2**32)])
        low = script.randrange(-50, 50)
        got.append(ours.integers(low, low + span))
        want.append(int(numpy.integers(low, low + span)))
    return got, want


@pytest.mark.parametrize("seed", SEEDS + LONG_SEEDS)
def test_stream_matches_default_rng(np, seed):
    got, want = draw_both(np, seed, 2000)
    assert got == want


@pytest.mark.parametrize("span", SPANS)
def test_each_span_matches_default_rng(np, span):
    ours, numpy = make_rng(5), np.random.default_rng(5)
    for _ in range(500):
        assert ours.integers(10, 10 + span) == int(numpy.integers(10, 10 + span))
    assert ours.random() == numpy.random()


def test_default_seed_is_default_rngs_stream(np):
    assert make_rng().random() == np.random.default_rng(DEFAULT_SEED).random()


def test_span_of_one_consumes_no_draw():
    rng = make_rng(3)
    assert rng.integers(7, 8) == 7
    assert rng.random() == make_rng(3).random()


@pytest.mark.parametrize("low, high", [(5, 5), (5, 4), (0, 2**32 + 1), (-1, 2**32)])
def test_rejects_empty_or_wider_than_32_bit_ranges(low, high):
    with pytest.raises(ValueError):
        make_rng(1).integers(low, high)


def test_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        Pcg64(-1)


def test_numpy_also_rejects_a_negative_seed(np):
    with pytest.raises(ValueError):
        np.random.default_rng(-1)


def test_the_package_imports_no_numpy():
    # a fresh interpreter, so no other test's import of NumPy is seen
    script = (
        "import sys\n"
        "import repro.api, repro.runner.registry, repro.workloads, repro.verify.fuzz\n"
        "repro.workloads.random_ilp(64, 0.5, seed=1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "[]"

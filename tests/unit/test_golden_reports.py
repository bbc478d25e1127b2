"""Golden-report regression tests.

Every experiment's ``report()`` output is deterministic, so each one is
pinned byte-for-byte against a snapshot under ``tests/golden/``.  Run
``pytest --update-golden`` after an intentional report change to
regenerate the snapshots (then review the diff like any other code).
"""

import importlib
from pathlib import Path

import pytest

from repro.runner.cache import ResultCache
from repro.runner.pool import run_jobs
from repro.runner.registry import REGISTRY, build_jobs

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _render(key: str) -> str:
    """One experiment's full report: its ``report()`` with no arguments."""
    return importlib.import_module(REGISTRY[key].module).report()


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_report_matches_golden(key, update_golden):
    text = _render(key)
    path = GOLDEN_DIR / f"{key}.txt"
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"golden snapshot rewritten: {path.name}")
    assert path.exists(), (
        f"missing golden snapshot {path}; run `pytest --update-golden` once"
    )
    assert text == path.read_text(encoding="utf-8")


def test_every_experiment_has_a_snapshot():
    have = {p.stem for p in GOLDEN_DIR.glob("*.txt")}
    assert have == set(REGISTRY), "snapshots out of sync with the registry"


def test_cached_result_identical_to_fresh(tmp_path):
    """A cache round-trip through the runner changes nothing in the text."""
    cache = ResultCache(tmp_path / "cache")
    jobs = build_jobs([REGISTRY["fig3"]])
    fresh = run_jobs(jobs, cache=cache)
    warm = run_jobs(jobs, cache=cache)
    assert [r.ok for r in fresh] == [True]
    assert [r.cache_hit for r in fresh] == [False]
    assert [r.cache_hit for r in warm] == [True]
    assert [r.output for r in warm] == [r.output for r in fresh]
    assert fresh[0].output == (GOLDEN_DIR / "fig3.txt").read_text(encoding="utf-8")

"""Self-checks of the benchmark's traced run.

Run on their own, from the root of a checkout::

    python3 -m pytest -q perfbench/test_attribution.py

The main check injects a fixed delay into one wrapped public function
(``InvariantChecker.__call__``): that layer's row and the end-to-end
metric mapped to it must move by the delay, and the other layers' rows
must not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import SpanRecorder, Tracing  # noqa: E402
from workloads import VerifyFuzz  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

DELAY_S = 0.0005
CASES = 6
#: rows that must not absorb the injected delay
OTHER_ROWS = (
    "ultrascalar.self_s",
    "isa.run_program_s",
    "frontend.fetch_cycle_s",
    "verify.generate_case_s",
    "verify.run_case_s",
    "baseline.dataflow_schedule_s",
    "remainder_s",
)


def _busy_wait(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def _small_fuzz() -> VerifyFuzz:
    workload = VerifyFuzz(run.ROOT, {})
    workload.setup(seed=5)
    workload.case_seeds = workload.case_seeds[:CASES]
    workload.ops_per_pass = CASES
    return workload


def _measure(workload, seconds: float = 1.0):
    untraced, _ = run.measure(workload, seconds)
    recorder = SpanRecorder()
    with Tracing(recorder):
        traced, wall = run.measure(workload, seconds, recorder)
    rows, _ = run.per_layer(workload, untraced, traced, wall, recorder, {}, {})
    return rows, run.end_to_end(workload, untraced, [0.0])


def test_injected_delay_moves_only_its_layer():
    workload = _small_fuzz()
    base_rows, base_e2e = _measure(workload)
    invariants = sys.modules["repro.verify.invariants"]
    checker = invariants.InvariantChecker
    original = checker.__dict__["__call__"]

    def slow_call(self, engine):
        original(self, engine)
        _busy_wait(DELAY_S)

    checker.__call__ = slow_call
    try:
        slow_rows, slow_e2e = _measure(workload)
    finally:
        checker.__call__ = original

    checks = base_rows["verify.invariant_checks"]
    assert checks > 0 and slow_rows["verify.invariant_checks"] == checks
    injected = checks * DELAY_S
    moved = slow_rows["verify.invariants_s"] - base_rows["verify.invariants_s"]
    assert 0.8 * injected < moved < 1.5 * injected
    assert slow_e2e["wall_s"] - base_e2e["wall_s"] > 0.7 * injected
    assert slow_e2e["cases_per_s"] < base_e2e["cases_per_s"]
    for row in OTHER_ROWS:
        assert abs(slow_rows[row] - base_rows[row]) < 0.25 * injected, row


def test_self_times_and_remainder_add_up_to_traced_wall():
    rows, _ = _measure(_small_fuzz(), seconds=0.5)
    layers = sum(rows[row] for row in run.LAYER_SPANS.values())
    total = layers + rows["remainder_s"]
    assert abs(total - rows["telemetry.traced_wall_s"]) < 1e-9 * max(1.0, total)
    assert rows["remainder_s"] >= 0.0


def test_nested_spans_split_self_time():
    recorder = SpanRecorder()
    outer = recorder.begin("ultrascalar")
    inner = recorder.begin("memory")
    _busy_wait(0.002)
    recorder.finish(inner)
    _busy_wait(0.001)
    recorder.finish(outer)
    table = recorder.aggregate()
    calls, total, own = table[(None, "ultrascalar")]
    assert calls == 1 and total > 0.003
    assert abs(own + table[(None, "memory")][2] - total) < 1e-12


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

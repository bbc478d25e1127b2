"""Pipeline trace rendering: per-cycle instruction lifecycles as text.

An extended version of :meth:`ProcessorResult.timing_diagram` that shows
the full lifecycle of each committed instruction:

``f`` fetched (in a station, arguments not yet ready) ·
``E`` executing (or waiting in the memory system) ·
``d`` done, waiting for older instructions to commit ·
``C`` commit cycle.

Reads like the pipeline diagrams in architecture textbooks and makes
stalls visually obvious: columns of ``f`` are RAW/ordering stalls,
columns of ``d`` are in-order-commit backpressure.
"""

from __future__ import annotations

from repro.ultrascalar.processor import ProcessorResult, TimingRecord


def _row(record: TimingRecord, horizon: int) -> str:
    cells = [" "] * horizon
    for cycle in range(record.fetch_cycle, record.issue_cycle):
        cells[cycle] = "f"
    for cycle in range(record.issue_cycle, record.complete_cycle + 1):
        cells[cycle] = "E"
    for cycle in range(record.complete_cycle + 1, record.commit_cycle):
        cells[cycle] = "d"
    if record.commit_cycle > record.complete_cycle:
        cells[record.commit_cycle] = "C"
    else:
        cells[record.commit_cycle] = "C" if cells[record.commit_cycle] == " " else "*"
    return "".join(cells).rstrip()


def render_pipeline(result: ProcessorResult, max_instructions: int = 40) -> str:
    """Render the committed instructions' lifecycles as a text chart.

    ``*`` marks a cycle where an instruction both finished executing and
    committed.  Truncates to *max_instructions* rows.
    """
    label_width = 22
    records = sorted(result.timings, key=lambda t: t.seq)[:max_instructions]
    if not records:
        return "(no instructions)"
    horizon = max(r.commit_cycle for r in records) + 1
    lines = [
        f"{'cycle':<{label_width}} |{''.join(str(c % 10) for c in range(horizon))}"
    ]
    lines.append("-" * (label_width + 2 + horizon))
    for record in records:
        label = str(record.instruction)[: label_width - 1]
        lines.append(f"{label:<{label_width}} |{_row(record, horizon)}")
    truncated = len(result.timings) - len(records)
    if truncated > 0:
        lines.append(f"... ({truncated} more instructions)")
    lines.append("legend: f=fetched/waiting  E=executing  d=done  C=commit  *=finish+commit")
    return "\n".join(lines)

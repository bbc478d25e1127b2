"""Experiment E16 — the paper's closing claim: the 1 cm chip.

"We believe that in a 0.1 micrometer CMOS technology, a hybrid
Ultrascalar with a window-size of 128 and 16 shared ALUs (with
floating-point) should fit easily within a chip 1 cm on a side."

We scale the calibrated 0.35 µm track to 0.1 µm (a 3.5× linear
shrink), add back the space the paper's register-datapath-only
layouts left out (ALU sharing means only 16 ALU blocks instead of 128),
and check the resulting hybrid's side; then run the same configuration
behaviourally (window 128, Memo-2 pool of 16 ALUs) for its IPC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ProcessorConfig, build_processor
from repro.util.tables import Table
from repro.vlsi.hybrid_layout import HybridLayout
from repro.vlsi.tech import TRACK_UM
from repro.workloads import random_ilp

#: 0.35 um -> 0.1 um linear shrink
SHRINK = 0.1 / 0.35


@dataclass
class OneCmResult:
    """The claim, checked."""

    side_cm: float
    area_cm2: float
    ipc: float
    cycles: int

    @property
    def fits_one_cm(self) -> bool:
        """'should fit easily within a chip 1 cm on a side'."""
        return self.side_cm <= 1.0


def run() -> OneCmResult:
    """Scale the layout and run the matching configuration."""
    layout = HybridLayout(n=128, cluster_size=32, num_registers=32)
    side_cm = layout.side_length() * (TRACK_UM * SHRINK) * 1e-4

    workload = random_ilp(600, 0.4, seed=701)
    config = ProcessorConfig(window_size=128, fetch_width=16, num_alus=16)
    result = build_processor("hybrid", config, cluster_size=32).run(
        workload.program, initial_registers=workload.registers_for()
    )
    return OneCmResult(
        side_cm=side_cm,
        area_cm2=side_cm**2,
        ipc=result.ipc,
        cycles=result.cycles,
    )


def report() -> str:
    """The closing-claim table."""
    outcome = run()
    table = Table(
        ["Quantity", "Paper claim", "Model"],
        title="E16 — 'a hybrid Ultrascalar with a window-size of 128 and 16 "
        "shared ALUs should fit easily within a chip 1 cm on a side' (0.1 um)",
    )
    table.add_row(["technology", "0.1 um CMOS", "projected-0.1um"])
    table.add_row(["window / ALUs", "128 / 16 shared", "128 / 16 (Memo-2 scheduler)"])
    table.add_row(["side (cm)", "<= 1", round(outcome.side_cm, 2)])
    table.add_row(["area (cm²)", "<= 1", round(outcome.area_cm2, 2)])
    table.add_row(["IPC (medium-ILP workload)", "—", round(outcome.ipc, 2)])
    return table.render()

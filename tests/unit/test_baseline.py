"""Unit tests for the dataflow oracle and the conventional complexity model."""

import pytest

from repro.baseline.complexity import (
    bypass_delay,
    conventional_superscalar_delay,
    rename_delay,
    select_delay,
    wakeup_delay,
)
from repro.baseline.dataflow import dataflow_schedule
from repro.isa import assemble, run_program
from repro.isa.interpreter import MachineState
from repro.workloads import paper_sequence


class TestDataflowSchedule:
    def test_paper_figure3_issue_times(self):
        """The schedule must reproduce the paper's Figure 3 exactly."""
        w = paper_sequence()
        golden = run_program(w.program, state=MachineState(w.registers_for()))
        schedule = dataflow_schedule(golden.trace)
        # div@0, add(R0+R3)@10, add(R5+R6)@0, add(R0+R1)@11,
        # mul@0, add(R2+R4)@3, sub@0, add(R0+R7)@1, halt@0
        assert [e.issue_cycle for e in schedule.entries] == [0, 10, 0, 11, 0, 3, 0, 1, 0]
        assert schedule.cycles == 12

    def test_serial_chain(self):
        golden = run_program(assemble("li r1, 1\nadd r2, r1, r1\nadd r3, r2, r2\nhalt"))
        schedule = dataflow_schedule(golden.trace)
        assert [e.issue_cycle for e in schedule.entries] == [0, 1, 2, 0]

    def test_latency_propagates(self):
        golden = run_program(assemble("li r1, 8\nli r2, 2\nmul r3, r1, r2\nadd r4, r3, r3\nhalt"))
        schedule = dataflow_schedule(golden.trace)
        entries = schedule.entries
        assert entries[2].issue_cycle == 1       # waits for both LIs (avail at 1)
        assert entries[2].complete_cycle == 3    # 3-cycle multiply
        assert entries[3].issue_cycle == 4       # forwarded a cycle later

    def test_load_waits_for_stores(self):
        golden = run_program(
            assemble("li r1, 8\nsw r1, 0(r1)\nlw r2, 0(r1)\nhalt")
        )
        schedule = dataflow_schedule(golden.trace)
        store, load = schedule.entries[1], schedule.entries[2]
        assert load.issue_cycle >= store.complete_cycle + 1

    def test_store_waits_for_prior_loads_and_branches(self):
        golden = run_program(
            assemble(
                """
                li r1, 8
                lw r2, 0(r1)
                beq r2, r0, next
              next:
                sw r1, 4(r1)
                halt
                """
            )
        )
        schedule = dataflow_schedule(golden.trace)
        load = schedule.entries[1]
        branch = schedule.entries[2]
        store = schedule.entries[3]
        assert store.issue_cycle >= load.complete_cycle + 1
        assert store.issue_cycle >= branch.complete_cycle + 1

    def test_fetch_width_staggers_entry(self):
        golden = run_program(assemble("nop\nnop\nnop\nnop\nhalt"))
        schedule = dataflow_schedule(golden.trace, fetch_width=2)
        assert [e.fetch_cycle for e in schedule.entries] == [0, 0, 1, 1, 2]

    def test_taken_branch_breaks_fetch_group(self):
        golden = run_program(assemble("j next\nnop\nnext: halt"))
        schedule = dataflow_schedule(golden.trace, fetch_width=4)
        assert schedule.entries[0].fetch_cycle == 0
        assert schedule.entries[1].fetch_cycle == 1  # halt after the jump

    def test_freed_station_starts_a_fresh_fetch_group(self):
        # the divide holds all eight stations until cycle 9; the eight
        # nops that wait for them enter four a cycle, not all at once
        golden = run_program(assemble("div r1, r2, r3\n" + "nop\n" * 15 + "halt"))
        schedule = dataflow_schedule(golden.trace, fetch_width=4, window_size=8)
        fetches = [e.fetch_cycle for e in schedule.entries]
        assert fetches == [0] * 4 + [1] * 4 + [10] * 4 + [11] * 4 + [12]
        assert schedule.cycles == 13

    def test_cluster_frees_after_its_last_commit(self):
        # the first nop's station frees at cycle 1 on its own, but only
        # with the divide's at cycle 10 when the two form a cluster
        golden = run_program(assemble("nop\ndiv r1, r2, r3\nnop\nnop\nnop\nhalt"))
        per_station = dataflow_schedule(golden.trace, fetch_width=4, window_size=4)
        clustered = dataflow_schedule(golden.trace, fetch_width=4, window_size=4, cluster_size=2)
        assert [e.fetch_cycle for e in per_station.entries] == [0, 0, 0, 0, 1, 10]
        assert [e.fetch_cycle for e in clustered.entries] == [0, 0, 0, 0, 10, 10]

    def test_window_limits_inflight(self):
        golden = run_program(assemble("nop\nnop\nnop\nnop\nhalt"))
        tight = dataflow_schedule(golden.trace, window_size=1)
        loose = dataflow_schedule(golden.trace)
        assert tight.cycles > loose.cycles

    def test_commit_is_monotone(self):
        w = paper_sequence()
        golden = run_program(w.program, state=MachineState(w.registers_for()))
        schedule = dataflow_schedule(golden.trace)
        commits = [e.commit_cycle for e in schedule.entries]
        assert commits == sorted(commits)

    def test_empty_trace(self):
        schedule = dataflow_schedule([])
        assert schedule.cycles == 0
        assert schedule.ipc == 0.0


class TestConventionalComplexity:
    def test_quadratic_growth_in_issue_width(self):
        d4 = conventional_superscalar_delay(4).critical
        d8 = conventional_superscalar_delay(8).critical
        d16 = conventional_superscalar_delay(16).critical
        d64 = conventional_superscalar_delay(64).critical
        assert d4 < d8 < d16 < d64
        # the quadratic term dominates eventually: quadrupling width from
        # 16 to 64 should much more than quadruple the delay
        assert d64 / d16 > 4

    def test_wakeup_grows_with_window(self):
        assert wakeup_delay(4, 128) > wakeup_delay(4, 32)

    def test_select_is_logarithmic(self):
        assert select_delay(64) - select_delay(32) == pytest.approx(
            select_delay(128) - select_delay(64), rel=0.01
        )

    def test_bypass_quadratic(self):
        assert bypass_delay(8) - bypass_delay(4) < bypass_delay(16) - bypass_delay(8)

    def test_rename_depends_on_register_count(self):
        assert rename_delay(4, 64) > rename_delay(4, 32)

    def test_default_window_is_8x(self):
        explicit = conventional_superscalar_delay(4, window_size=32)
        default = conventional_superscalar_delay(4)
        assert default == explicit

    def test_validation(self):
        with pytest.raises(ValueError):
            rename_delay(0, 32)
        with pytest.raises(ValueError):
            select_delay(0)
        with pytest.raises(ValueError):
            bypass_delay(0)

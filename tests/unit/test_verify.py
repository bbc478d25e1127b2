"""Unit tests for the differential-verification subsystem (repro.verify).

The centerpiece is the mutation test: inject a forwarding bug into the
ring engine's producer-link read and show that the fuzzer (a) detects the
divergence against the architectural oracle, (b) shrinks the failing
program to a minimal reproducer (at most 8 instructions), and (c) the
recorded reproducer replays the failure.
"""

import json

import pytest

from repro.isa.assembler import assemble
from repro.ultrascalar.ring import NONE_PENDING, RingProcessor
from repro.ultrascalar.station import StationState
from repro.verify import (
    DESIGNS,
    InvariantChecker,
    build_verify_artifact,
    corpus_cases,
    generate_case,
    load_reproducer,
    run_case,
    run_differential,
    run_oracle,
    shard_report,
    shrink_case,
    validate_verify_artifact,
    write_reproducer,
)
from repro.verify.cli import main as verify_main
from repro.verify.fuzz import CaseFailure, parse_shard_report
from repro.workloads import memory_stream, paper_sequence, random_ilp

#: fuzz parameters kept small so the mutation tests stay fast
FAST = dict(sizes=(4,), designs=("us1",), check_invariants=False)


class TestOracle:
    def test_paper_sequence_commits(self):
        w = paper_sequence()
        oracle = run_oracle(w.program, w.registers_for(), dict(w.memory_image))
        assert oracle.halted
        assert oracle.dynamic_length == len(w.program)
        # commits follow the static order for this straight-line program
        assert [c[0] for c in oracle.commits] == list(range(len(w.program)))

    def test_memory_image_round_trips(self):
        w = memory_stream(6)
        oracle = run_oracle(w.program, w.registers_for(), dict(w.memory_image))
        # every preloaded address is still present in the final image
        assert set(w.memory_image) <= set(oracle.memory)


def _count_interpreter_runs(monkeypatch):
    """A list that gains one entry per golden-interpreter run."""
    import repro.isa.interpreter as interpreter
    import repro.verify.oracle as oracle

    calls = []
    original = interpreter.run_program

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(interpreter, "run_program", counting)
    monkeypatch.setattr(oracle, "run_program", counting)
    return calls


class TestRunDifferential:
    @pytest.mark.parametrize("window", [None, 2, 4, 8, 16])
    def test_known_workloads_agree(self, window):
        w = random_ilp(30, 0.5, seed=7)
        report = run_differential(
            w.program,
            initial_registers=w.registers_for(),
            memory_image=dict(w.memory_image),
            window=window,
        )
        assert report.ok, report.divergences
        assert set(report.cycles) >= {"us1", "us2", "hybrid"}
        assert report.invariant_checks > 0

    def test_wrap_free_ilp_equivalence_enforced(self):
        w = paper_sequence()
        report = run_differential(
            w.program, initial_registers=w.registers_for()
        )
        assert report.ok
        engine_cycles = {report.cycles[d] for d in ("us1", "us2", "hybrid")}
        assert len(engine_cycles) == 1

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            run_differential(paper_sequence().program, designs=("us1", "nope"))

    def test_golden_interpreter_runs_once(self, monkeypatch):
        # the dataflow baseline schedules the oracle's own trace
        calls = _count_interpreter_runs(monkeypatch)
        w = random_ilp(24, 0.5, seed=5)
        report = run_differential(w.program, initial_registers=w.registers_for())
        assert report.ok and set(report.cycles) == set(DESIGNS)
        assert len(calls) == 1

    def test_predictor_pre_pass_runs_once(self, monkeypatch):
        # one oracle run plus one perfect-predictor pre-pass shared by
        # us1, us2 and the hybrid
        calls = _count_interpreter_runs(monkeypatch)
        program = assemble(
            """
            li r1, 3
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
            """
        )
        report = run_differential(program, window=2)
        assert report.ok and set(report.cycles) == set(DESIGNS)
        assert len(calls) == 2

    def test_stats_collected_for_triage(self):
        w = paper_sequence()
        report = run_differential(
            w.program, initial_registers=w.registers_for(), collect_stats=True
        )
        assert set(report.stats) == {"us1", "us2", "hybrid"}
        assert all(report.stats[d] for d in report.stats)


def _free_clusters_late(monkeypatch):
    """Make a hybrid free each full cluster one cycle after its last commit."""
    healthy = RingProcessor._phase_commit

    def late(self):
        if not 1 < self.cluster_size < self.n:
            return healthy(self)
        while self.committed_count < self.count:
            station = self.stations[(self.oldest + self.committed_count) % self.n]
            if station.state is not StationState.DONE:
                break
            self._commit(station)
            self.committed_count += 1
        for _ in range(getattr(self, "_due", 0)):  # full since last cycle
            self._free(self.cluster_size)
        self._due = self.committed_count // self.cluster_size
        drained = self.committed_count == self.count < self.cluster_size
        if self.count and drained and self.fetch.stalled():
            self._free(self.count)

    monkeypatch.setattr(RingProcessor, "_phase_commit", late)


class TestTimingCheck:
    def test_late_cluster_free_caught(self, monkeypatch):
        # registers, memory and commits stay right; only the refill is late
        _free_clusters_late(monkeypatch)
        w = random_ilp(30, 0.5, seed=7)
        report = run_differential(
            w.program,
            initial_registers=w.registers_for(),
            memory_image=dict(w.memory_image),
            window=16,
        )
        assert [(d.design, d.field) for d in report.divergences] == [("hybrid", "timing")]
        assert report.divergences[0].detail.startswith("first mismatch at dynamic index 16:")


#: a long-latency head keeps the younger stations in the window: station 1
#: waits on r1, station 2 finishes at cycle 0 and cannot commit before cycle 2
LONG_HEAD = """
    mul r1, r2, r3
    add r4, r1, r5
    addi r6, r0, 1
    halt
"""
#: as LONG_HEAD, with an unfinished store at station 2
STORE_BEHIND = """
    mul r1, r2, r3
    add r4, r1, r5
    sw r1, 0(r0)
    halt
"""


def _break_once(monkeypatch, method, corrupt):
    """After each ``RingProcessor.<method>`` call, try *corrupt* on the
    engine until it reports that it broke something.

    Corrupting after ``_phase_commit``, the last phase of a cycle, puts
    the broken state in front of that same cycle's invariant check.
    """
    healthy = getattr(RingProcessor, method)
    broken = []

    def wrapped(self, *args):
        outcome = healthy(self, *args)
        if not broken and corrupt(self):
            broken.append(self.cycle)
        return outcome

    monkeypatch.setattr(RingProcessor, method, wrapped)


def _both(first, second):
    return lambda engine: first(engine) and second(engine)


def _deassert_ready_bit(engine):
    """Drop the ready bit of the oldest station DONE since an earlier cycle."""
    for station in engine.occupied_stations():
        if station.done and station.complete_cycle < engine.cycle:
            station.state = StationState.EXECUTING
            return True
    return False


def _forget_store(engine):
    """Lose the oldest unfinished store from the stores cursor's queue."""
    if engine.ordering_cursors()[0] == NONE_PENDING:
        return False
    engine._stores.popleft()
    return True


def _unlink_producer(engine):
    """Point the oldest station with a live producer at the register file."""
    for station in engine.occupied_stations():
        if any(p is not None and p.occupied for p in station.producers):
            station.producers = (None,) * len(station.producers)
            return True
    return False


def _inflate_pending(engine):
    """Count one operand too many on the oldest waiting station."""
    for station in engine.occupied_stations():
        if station.state is StationState.WAITING and station.pending:
            station.pending += 1
            return True
    return False


def _issue_early(engine):
    """Make the station just allocated issue without its operands."""
    station = engine.stations[(engine.oldest + engine.count - 1) % engine.n]
    if not station.pending:
        return False
    station.pending = 0
    engine._schedule(station)
    return True


def _invariant_detail(source):
    """The checker's report on *source* run through the broken us1."""
    report = run_differential(assemble(source), designs=("us1",))
    [divergence] = report.divergences
    assert divergence.field == "invariant", divergence
    return divergence.detail


class TestInvariantChecker:
    def test_clean_runs_accumulate_checks(self):
        checker = InvariantChecker()
        w = random_ilp(20, 0.3, seed=11)
        report = run_differential(
            w.program,
            initial_registers=w.registers_for(),
            memory_image=dict(w.memory_image),
            window=4,
        )
        assert report.ok and report.invariant_checks > 0
        assert checker.checks == 0  # fresh checker untouched

    def test_commit_fifo_violation_detected(self, monkeypatch):
        # corrupt commitment: report the stream in reversed order
        original = RingProcessor.step

        def scrambled(self):
            outcome = original(self)
            if len(self.commit_log) >= 2:
                self.commit_log[-1], self.commit_log[-2] = (
                    self.commit_log[-2],
                    self.commit_log[-1],
                )
            return outcome

        monkeypatch.setattr(RingProcessor, "step", scrambled)
        w = paper_sequence()
        report = run_differential(
            w.program,
            initial_registers=w.registers_for(),
            designs=("us1",),
        )
        assert not report.ok
        assert any(d.field in ("invariant", "commits") for d in report.divergences)

    def test_ready_bit_deassertion_detected(self, monkeypatch):
        _break_once(monkeypatch, "_phase_commit", _deassert_ready_bit)
        detail = _invariant_detail(LONG_HEAD)
        assert "ready bit de-asserted: station 2 (seq 2) was DONE and is no longer" in detail

    def test_ordering_cursor_divergence_detected(self, monkeypatch):
        _break_once(monkeypatch, "_phase_commit", _forget_store)
        detail = _invariant_detail(STORE_BEHIND)
        assert "CSPP stores-ordering cursor diverged from the specification walk" in detail
        assert f"engine seq {NONE_PENDING}, walk seq 2" in detail

    def test_producer_link_divergence_detected(self, monkeypatch):
        _break_once(monkeypatch, "_phase_commit", _unlink_producer)
        detail = _invariant_detail(LONG_HEAD)
        assert (
            "station 1 (seq 1) links r1 to the register file, "
            "CSPP routes it from station 0 (seq 0)"
        ) in detail

    def test_issue_before_producer_detected(self, monkeypatch):
        _break_once(monkeypatch, "_allocate", _issue_early)
        detail = _invariant_detail("mul r1, r2, r3\nmul r4, r1, r5\nhalt")
        assert "station 1 (seq 1) issued before station 0 (seq 0) produced r1" in detail

    def test_stale_operand_read_detected(self, monkeypatch):
        _forwarding_bug(monkeypatch)
        # the mul keeps the finished addi in the window, so its result
        # has not reached the register file
        detail = _invariant_detail("mul r6, r2, r3\naddi r1, r0, 5\nadd r4, r1, r1\nhalt")
        assert (
            "station 2 (seq 2) reads r1 = 0 through its producer link, CSPP routes 5"
        ) in detail

    def test_pending_count_divergence_detected(self, monkeypatch):
        _break_once(monkeypatch, "_phase_commit", _inflate_pending)
        detail = _invariant_detail(LONG_HEAD)
        assert "station 1 (seq 1) waits on 2 operands, CSPP shows 1 not ready" in detail

    @pytest.mark.parametrize(
        "corrupt, source, message",
        [
            # the link breaks at station 1, the ready bit at station 2
            (
                _both(_deassert_ready_bit, _unlink_producer),
                LONG_HEAD,
                "ready bit de-asserted: station 2 (seq 2)",
            ),
            (
                _both(_forget_store, _unlink_producer),
                STORE_BEHIND,
                "CSPP stores-ordering cursor diverged",
            ),
        ],
        ids=["ready-bit-before-link", "cursor-before-link"],
    )
    def test_first_failing_property_reported(self, monkeypatch, corrupt, source, message):
        _break_once(monkeypatch, "_phase_commit", corrupt)
        detail = _invariant_detail(source)
        assert message in detail
        assert "links r1" not in detail


def _forwarding_bug(monkeypatch):
    """Install the classic bug: DONE station forwards a stale value.

    A station reading r1 through its producer link gets the committed
    register file's (pre-write) value although the producer has
    finished — a broken result bus, invisible to anything but
    differential testing.
    """
    healthy = RingProcessor._operand

    def buggy(self, producer, reg):
        if reg == 1 and producer is not None and producer.done:
            return self.committed_regs[1]
        return healthy(self, producer, reg)

    monkeypatch.setattr(RingProcessor, "_operand", buggy)


class TestMutationCatchAndShrink:
    def test_forwarding_bug_caught_and_shrunk(self, monkeypatch, tmp_path):
        _forwarding_bug(monkeypatch)
        failure = None
        for seed in range(50):
            failure = run_case(generate_case(seed, 24), **FAST)
            if failure is not None:
                break
        assert failure is not None, "fuzzer missed the injected forwarding bug"

        shrunk = shrink_case(failure, **FAST)
        assert len(shrunk.program) <= 8, shrunk.program.disassemble()
        # the minimal program still fails on its own
        assert run_case(shrunk, **FAST) is not None

        path = write_reproducer(tmp_path, failure, shrunk)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-failure/1"
        assert payload["shrunk_size"] == len(shrunk.program)

        # the recorded reproducer replays the failure (shrunk program)
        replayed = load_reproducer(path)
        assert len(replayed.program) == len(shrunk.program)
        assert run_case(replayed, **FAST) is not None

    def test_reproducer_clean_after_fix(self, monkeypatch, tmp_path):
        _forwarding_bug(monkeypatch)
        failure = None
        for seed in range(50):
            failure = run_case(generate_case(seed, 24), **FAST)
            if failure is not None:
                break
        assert failure is not None
        path = write_reproducer(tmp_path, failure)
        monkeypatch.undo()  # "fix" the bug
        assert run_case(load_reproducer(path), **FAST) is None


class TestShardAndReproducers:
    def test_clean_shard(self):
        outcome = parse_shard_report(shard_report(seed=0, budget=60))
        assert outcome.ok
        # the corpus workloads run first, so the budget can overshoot
        assert outcome.instructions >= 60
        assert outcome.cases >= len(corpus_cases(0))

    def test_shard_is_deterministic(self):
        assert shard_report(seed=3, budget=60) == shard_report(seed=3, budget=60)

    def test_corpus_cases_clean_and_deterministic(self):
        cases = corpus_cases(2)
        assert [c.size for c in cases] == [c.size for c in corpus_cases(2)]
        for case in cases:
            assert run_case(case, **FAST) is None

    def test_failing_shard_writes_reproducers(self, monkeypatch, tmp_path):
        _forwarding_bug(monkeypatch)
        outcome = parse_shard_report(
            shard_report(
                seed=1,
                budget=400,
                sizes=(4,),
                designs=("us1",),
                check_invariants=False,
                failures_dir=str(tmp_path),
            )
        )
        assert not outcome.ok
        for failure in outcome.failures:
            assert (tmp_path / f"seed{failure['seed']:08d}.json").exists()

    def test_load_accepts_reproducer_without_version(self, tmp_path):
        case = generate_case(0, 6)
        path = write_reproducer(tmp_path, CaseFailure(case=case, window=4, report=None, error="x"))
        payload = json.loads(path.read_text())
        assert payload.pop("version")
        path.write_text(json.dumps(payload))
        assert load_reproducer(path).program.disassemble() == case.program.disassemble()

    def test_load_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="schema"):
            load_reproducer(path)


class TestVerifyArtifact:
    def _document(self, shards):
        return build_verify_artifact(
            shards, designs=DESIGNS, sizes=(4, 16), budget=100, minimize=True
        )

    def test_valid_document(self):
        shard = {
            "seed": 0,
            "status": "ok",
            "cases": 3,
            "instructions": 100,
            "failures": [],
            "error": None,
        }
        document = self._document([shard])
        assert validate_verify_artifact(document) == []
        assert document["totals"]["failures"] == 0

    def test_problems_reported(self):
        assert validate_verify_artifact([]) == ["artifact is not a JSON object"]
        document = self._document(
            [{"seed": 0, "status": "weird", "failures": [{"nope": 1}]}]
        )
        problems = validate_verify_artifact(document)
        assert any("status" in p for p in problems)
        assert any("missing program/divergences" in p for p in problems)


class TestVerifyCli:
    def test_smoke_run_with_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "verify.json"
        code = verify_main(
            [
                "--seeds",
                "0:2",
                "--budget",
                "40",
                "--json",
                str(artifact),
                "--failures-dir",
                str(tmp_path / "failures"),
            ]
        )
        assert code == 0
        document = json.loads(artifact.read_text())
        assert validate_verify_artifact(document) == []
        assert document["totals"]["shards"] == 2
        out = capsys.readouterr()
        assert "verify: 2 shard(s)" in out.err

    def test_divergence_sets_exit_code(self, monkeypatch, tmp_path, capsys):
        _forwarding_bug(monkeypatch)
        code = verify_main(
            [
                "--seeds",
                "0:1",
                "--budget",
                "300",
                "--sizes",
                "4",
                "--designs",
                "us1",
                "--no-invariants",
                "--failures-dir",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert any(tmp_path.glob("seed*.json"))

    def test_repro_replay(self, monkeypatch, tmp_path, capsys):
        _forwarding_bug(monkeypatch)
        failure = None
        for seed in range(50):
            failure = run_case(generate_case(seed, 24), **FAST)
            if failure is not None:
                break
        path = write_reproducer(tmp_path, failure)
        code = verify_main(
            ["--repro", str(path), "--sizes", "4", "--designs", "us1", "--no-invariants"]
        )
        assert code == 1
        monkeypatch.undo()
        code = verify_main(
            ["--repro", str(path), "--sizes", "4", "--designs", "us1", "--no-invariants"]
        )
        assert code == 0

    def _replay_error(self, path, capsys):
        assert verify_main(["--repro", str(path)]) == 2
        return capsys.readouterr().err

    def test_repro_rejects_json_list(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert "cannot load reproducer: " in self._replay_error(path, capsys)

    def test_repro_rejects_foreign_schema(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        err = self._replay_error(path, capsys)
        assert "cannot load reproducer: " in err and "'other/1'" in err

    def test_repro_rejects_missing_file(self, tmp_path, capsys):
        err = self._replay_error(tmp_path / "absent.json", capsys)
        assert "cannot load reproducer: " in err and "absent.json" in err

    def test_bad_arguments(self, capsys):
        assert verify_main(["--seeds", "5:5"]) == 2
        assert verify_main(["--designs", "warp-drive"]) == 2
        assert verify_main(["--designs", "dataflow"]) == 2
        assert verify_main(["--sizes", "0"]) == 2


class TestMainDispatch:
    def test_verify_routed_from_package_main(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            [
                "verify",
                "--seeds",
                "0:1",
                "--budget",
                "30",
                "--failures-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "shard seed=0" in capsys.readouterr().out

"""Unit tests for the CLI entry point and the result/timing helpers."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.isa import Instruction, Opcode
from repro.isa.registers import MachineSpec
from repro.runner.registry import REGISTRY, ExperimentSpec
from repro.workloads import paper_sequence


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "E10" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "Experiments:" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_single_experiment_runs(self, capsys):
        assert main(["fig12"]) == 0
        assert "density ratio" in capsys.readouterr().out

    def test_registry_is_complete(self):
        assert len(REGISTRY) >= 12
        for spec in REGISTRY.values():
            assert callable(importlib.import_module(spec.module).report)


class TestRunnerCli:
    def test_jobs_flag_accepted(self, capsys, tmp_path):
        assert main(["fig12", "--jobs", "2", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "density ratio" in capsys.readouterr().out

    def test_cache_dir_roundtrip_is_byte_identical(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["fig12", "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert list(cache_dir.glob("fig12-*.json")), "result not cached"
        assert main(["fig12", "--cache-dir", str(cache_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_json_artifact_reports_cache_hits(self, capsys, tmp_path):
        artifact = tmp_path / "run.json"
        cache = str(tmp_path / "c")
        assert main(["fig12", "--cache-dir", cache, "--json", str(artifact)]) == 0
        data = json.loads(artifact.read_text(encoding="utf-8"))
        assert data["schema"] == "repro-runner/2"
        [result] = data["results"]
        assert result["experiment"] == "fig12" and result["status"] == "ok"
        assert result["cache_hit"] is False
        assert main(["fig12", "--cache-dir", cache, "--json", str(artifact)]) == 0
        [warm] = json.loads(artifact.read_text(encoding="utf-8"))["results"]
        assert warm["cache_hit"] is True
        assert warm["stats"] is None  # hits replay text; no counters
        assert warm["output_sha256"] == result["output_sha256"]

    def test_no_cache_writes_nothing(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        assert main(["fig12", "--no-cache", "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["fig12", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--jobs", "0"), ("--jobs", "-2"), ("--timeout", "0"), ("--timeout", "-1"),
         ("--retries", "-1")],
    )
    def test_out_of_range_option_exits_2(self, flag, value, capsys):
        # rejected by argparse before any experiment runs
        assert main(["all", "--no-cache", flag, value]) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: " in captured.err
        assert captured.out == ""

    def test_zero_retries_is_accepted(self, capsys):
        assert main(["fig12", "--no-cache", "--retries", "0", "--jobs", "1"]) == 0

    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        listing = capsys.readouterr().out.split("Experiments:\n", 1)[1]
        assert [line.split()[0] for line in listing.splitlines()] == list(REGISTRY)
        assert main(["--list"]) == 2

    def test_warm_all_imports_no_experiment(self, tmp_path):
        # run the CLI in a fresh interpreter and report which experiment
        # modules it imported on the last line of stderr
        script = (
            "import sys\n"
            "from repro.__main__ import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')),"
            " file=sys.stderr)\n"
            "raise SystemExit(code)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        args = ["all", "--jobs", "1", "--cache-dir", str(tmp_path / "cache")]

        def run(*extra):
            return subprocess.run(
                [sys.executable, "-c", script, *args, *extra],
                capture_output=True, text=True, cwd=tmp_path, check=True,
                env={**os.environ, "PYTHONPATH": str(src)},
            )

        cold = run()
        warm = run("--json", str(tmp_path / "warm.json"))
        assert warm.stdout == cold.stdout
        assert cold.stderr.splitlines()[-1] != "[]"
        assert warm.stderr.splitlines()[-1] == "[]"
        totals = json.loads((tmp_path / "warm.json").read_text(encoding="utf-8"))["totals"]
        assert totals["cache_hits"] == totals["jobs"] == len(REGISTRY)

    def test_unknown_experiment_suggests_close_matches(self, capsys):
        assert main(["figg3"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "fig3" in err

    def test_json_artifact_carries_stats(self, capsys, tmp_path):
        artifact = tmp_path / "run.json"
        assert main(["fig3", "--no-cache", "--json", str(artifact)]) == 0
        [result] = json.loads(artifact.read_text(encoding="utf-8"))["results"]
        stats = result["stats"]
        assert stats and stats["commit.instructions"] > 0
        from repro.runner.artifacts import validate_artifact

        assert validate_artifact(json.loads(artifact.read_text(encoding="utf-8"))) == []

    def test_trace_flag_writes_valid_chrome_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.json"
        assert main(["fig3", "--no-cache", "--trace", str(trace)]) == 0
        from repro.telemetry.chrome import validate_chrome_trace

        document = json.loads(trace.read_text(encoding="utf-8"))
        assert validate_chrome_trace(document) == []
        jobs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert jobs and jobs[0]["name"].startswith("fig3")
        assert "stats" in jobs[0]["args"]

    def test_all_isolates_failures_and_returns_nonzero(self, capsys, monkeypatch):
        import repro.__main__ as cli
        import repro.runner._selftest as selftest

        # without --jobs every job runs in this process and calls the patch
        monkeypatch.setattr(selftest, "report", selftest.boom, raising=False)
        fake = {
            "good": ExperimentSpec("good", "EX1 — good", "repro.experiments.fig12_layout"),
            "bad": ExperimentSpec("bad", "EX2 — bad", "repro.runner._selftest"),
            "tail": ExperimentSpec("tail", "EX3 — tail", "repro.experiments.fig12_layout"),
        }
        monkeypatch.setattr(cli, "REGISTRY", fake)
        assert main(["all", "--no-cache", "--retries", "0"]) == 1
        captured = capsys.readouterr()
        # the crash in 'bad' did not abort the experiments after it
        assert "EX1 — good" in captured.out and "EX3 — tail" in captured.out
        assert "experiment 'bad' failed" in captured.err
        assert "RuntimeError: boom" in captured.err


class TestTimingDiagram:
    def run_paper(self):
        w = paper_sequence()
        config = ProcessorConfig(window_size=9, fetch_width=9)
        return build_processor("us1", config).run(
            w.program, memory=IdealMemory(), initial_registers=w.registers_for()
        )

    def test_diagram_has_one_row_per_instruction(self):
        result = self.run_paper()
        lines = result.timing_diagram().splitlines()
        assert len(lines) == len(result.timings) + 1  # plus the axis

    def test_diagram_bars_align_with_issue_cycles(self):
        result = self.run_paper()
        lines = result.timing_diagram().splitlines()
        div_line = next(ln for ln in lines if ln.startswith("div"))
        bar = div_line.split("|")[1]
        assert bar.startswith("#")       # issues at cycle 0
        assert bar.count("#") == 10      # ten cycles of divide

    def test_empty_result_diagram(self):
        from repro.ultrascalar.processor import ProcessorResult

        empty = ProcessorResult(cycles=0, commit_log=[], registers=[], memory={}, halted=False)
        assert "(no instructions)" in empty.timing_diagram()

    def test_execute_span(self):
        result = self.run_paper()
        spans = [t.execute_span for t in result.timings]
        for (start, end), t in zip(spans, result.timings):
            assert start == t.issue_cycle
            assert end == t.complete_cycle + 1


class TestSpecValidation:
    def test_machine_spec_rejects_nonsense(self):
        with pytest.raises(ValueError):
            MachineSpec(num_registers=0)
        with pytest.raises(ValueError):
            MachineSpec(word_bits=0)

    def test_machine_spec_properties(self):
        spec = MachineSpec(num_registers=16, word_bits=8)
        assert spec.L == 16
        with pytest.raises(ValueError):
            spec.validate_register(16)

    def test_program_rejects_bad_register(self):
        from repro.isa import Program

        with pytest.raises(ValueError, match="out of range"):
            Program.from_instructions(
                [Instruction(Opcode.ADD, rd=50, rs1=0, rs2=0)],
                MachineSpec(num_registers=32),
            )

    def test_program_rejects_bad_target(self):
        from repro.isa import Program

        with pytest.raises(ValueError, match="target"):
            Program.from_instructions(
                [Instruction(Opcode.J, target=99), Instruction(Opcode.HALT)]
            )

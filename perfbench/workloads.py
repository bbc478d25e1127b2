"""The benchmark's three workloads, each a closed loop in one process.

One client calls the program, waits for the call to return, checks the
output, then makes the next call.  Inputs come from ``--seed``; the
program sees only the generated inputs.  Every workload exposes:

* ``setup(seed)`` — import :mod:`repro` afresh and generate the inputs;
  returns the set-up rows (seconds) it measured inside itself;
* ``run_pass(recorder)`` — one pass of the fixed work, timed around the
  calls into the program only, with every output checked;
* ``ops_per_pass`` — checked operations (reports, simulator runs, fuzz
  cases) one pass attempts.

With a :class:`~tracing.SpanRecorder` a pass also opens one ``op`` span
per operation, so per-operation rows can be read off the trace.
"""

from __future__ import annotations

import importlib
import random
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import OP, CycleClock, Delegate, SpanRecorder

#: registry keys of ``python -m repro all``, in reporting order
EXPERIMENTS = (
    "fig3", "fig11", "fig12", "crossover", "cluster", "membw", "3d", "selftimed",
    "gates", "ipc", "window", "map", "perf", "ilp", "1cm",
)

#: simulate runs as (program, design, window size n)
SIM_RUNS = (
    ("ilp", "us1", 32),
    ("ilp", "us1", 256),
    ("ilp", "us2", 256),
    ("ilp", "hybrid", 256),
    ("ilp", "us1", 1024),
    ("mem", "us1", 256),
    ("mem", "us2", 256),
    ("mem", "hybrid", 256),
)
#: fetch width scales with the window, as the paper assumes
FETCH_WIDTH = {32: 4, 256: 32, 1024: 64}
#: hybrid cluster size C (= L = 32, as in the fig12 and 1cm experiments)
HYBRID_CLUSTER = 32
ILP_LENGTH = 3000
ILP_DENSITY = 0.5
MATMUL_SIZE = 6

FUZZ_CASES = 100
FUZZ_CASE_SIZE = 48


def run_key(program: str, design: str, n: int) -> str:
    return f"{program}.{design}.n{n}"


SIM_KEYS = tuple(run_key(*run) for run in SIM_RUNS)


@dataclass
class Pass:
    """One pass of a workload's fixed work."""

    #: host seconds inside calls to the program (checks excluded)
    seconds: float
    attempted: int
    failed: int
    #: (operation label, host seconds) for every operation
    ops: list[tuple[str, float]] = field(default_factory=list)
    #: what went wrong: failed operations and broken load-shape rules
    errors: list[str] = field(default_factory=list)
    #: reference-host seconds per host second while this pass ran
    scale: float = 1.0


def fresh_import(*names: str) -> list:
    """Drop every loaded ``repro`` module, then import *names* anew.

    Each set-up therefore pays the package's import cost, as a user's
    fresh process does (modules outside ``repro`` stay loaded).
    """
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    return [importlib.import_module(name) for name in names]


def _no_process_pool(*args, **kwargs):
    raise RuntimeError("the benchmark runs every workload in one process")


class Workload:
    """Defaults shared by the three workloads."""

    name = ""
    ops_per_pass = 0

    def __init__(self, root: Path, pins: dict):
        self.root = root
        self.pins = pins
        #: registry key -> experiment module, whose ``report`` the traced run wraps
        self.experiments: dict[str, str] = {}

    def count_pass(self) -> tuple[dict[str, float], list[str]]:
        """Exact simulated counts as per-layer rows, and any broken pins."""
        return {}, []


class Reproduce(Workload):
    """Regenerate all 15 reports cold, as ``python -m repro all --no-cache --jobs 1``."""

    name = "reproduce"
    ops_per_pass = len(EXPERIMENTS)

    def setup(self, seed: int) -> dict[str, float]:
        registry, pool = fresh_import("repro.runner.registry", "repro.runner.pool")
        if tuple(registry.REGISTRY) != EXPERIMENTS:
            raise RuntimeError(f"registry keys {list(registry.REGISTRY)} != {list(EXPERIMENTS)}")
        start = perf_counter()
        jobs = registry.build_jobs(list(registry.REGISTRY.values()))
        build_jobs_s = perf_counter() - start
        start = perf_counter()
        random.Random(seed).shuffle(jobs)
        generate_s = perf_counter() - start
        # the single-worker path never builds a pool; make that a rule
        pool.ProcessPoolExecutor = _no_process_pool
        self.pool = pool
        self.jobs = jobs
        self.experiments = {key: spec.module for key, spec in registry.REGISTRY.items()}
        self.golden = {
            key: (self.root / "tests" / "golden" / f"{key}.txt").read_text(encoding="utf-8")
            for key in EXPERIMENTS
        }
        caches = {}
        for name, module in list(sys.modules.items()):
            if name.startswith("repro."):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                        caches[id(value)] = value
        self.memo_caches = list(caches.values())
        return {"runner.build_jobs_s": build_jobs_s, "workloads.generate_s": generate_s}

    def run_pass(self, recorder: SpanRecorder | None = None) -> Pass:
        for memo in self.memo_caches:  # cold means no in-process memo either
            memo.cache_clear()
        op = recorder.begin(OP, self.name) if recorder else -1
        start = perf_counter()
        results = self.pool.run_jobs(self.jobs, workers=1, cache=None, retries=0)
        seconds = perf_counter() - start
        if recorder:
            recorder.finish(op)
        errors = []
        misses = sum(not result.cache_hit for result in results)
        if misses != len(self.jobs):
            errors.append(f"{misses} cache misses, expected {len(self.jobs)}")
        parts: dict[str, list] = defaultdict(list)
        for result in sorted(results, key=lambda r: (r.experiment, r.index)):
            parts[result.experiment].append(result.output if result.ok else None)
        failed = 0
        for key, golden in self.golden.items():
            texts = parts.get(key)
            if not texts or None in texts or "\n".join(texts) != golden:
                failed += 1
                errors.append(f"report {key} differs from tests/golden/{key}.txt")
        return Pass(seconds, len(self.golden), failed, [(self.name, seconds)], errors)


@dataclass
class _SimRun:
    key: str
    n: int
    processor: object
    program: object
    registers: list[int]
    image: dict[int, int]
    reference: object
    predictor: object
    cycles: int


class Simulate(Workload):
    """Wide-window runs through ``repro.api.build_processor(...).run``."""

    name = "simulate"
    ops_per_pass = len(SIM_RUNS)

    def setup(self, seed: int) -> dict[str, float]:
        api, generators, kernels, oracle, interpreter, predictors = fresh_import(
            "repro.api",
            "repro.workloads.generators",
            "repro.workloads.kernels",
            "repro.verify.oracle",
            "repro.isa.interpreter",
            "repro.frontend.branch_predictor",
        )
        start = perf_counter()
        rng = random.Random(seed)
        # program shapes are fixed, so simulated cycles are the same for
        # every seed; the seed draws the data the programs compute on
        ilp = generators.random_ilp(
            ILP_LENGTH, ILP_DENSITY, seed=self.pins["simulate"]["ilp_shape_seed"]
        )
        matmul = kernels.matmul(MATMUL_SIZE)
        inputs = {
            "ilp": (
                ilp.program,
                [rng.getrandbits(32) for _ in range(ilp.program.spec.num_registers)],
                {},
            ),
            "mem": (
                matmul.program,
                matmul.registers_for(),
                {address: rng.randrange(1, 1000) for address in sorted(matmul.memory_image)},
            ),
        }
        references, traces = {}, {}
        for name, (program, registers, image) in inputs.items():
            references[name] = oracle.run_oracle(program, registers, image)
            state = interpreter.MachineState(list(registers), dict(image))
            traces[name] = interpreter.run_program(program, state=state).trace
        generate_s = perf_counter() - start
        self.api = api
        self.commit_stream = oracle.commit_stream
        self.runs = []
        for program_name, design, n in SIM_RUNS:
            program, registers, image = inputs[program_name]
            config = api.ProcessorConfig(window_size=n, fetch_width=FETCH_WIDTH[n])
            key = run_key(program_name, design, n)
            self.runs.append(
                _SimRun(
                    key=key,
                    n=n,
                    processor=api.build_processor(design, config, cluster_size=HYBRID_CLUSTER),
                    program=program,
                    registers=registers,
                    image=image,
                    reference=references[program_name],
                    predictor=predictors.PerfectPredictor.from_trace(traces[program_name]),
                    cycles=self.pins["simulate"]["cycles"][key],
                )
            )
        return {"runner.build_jobs_s": 0.0, "workloads.generate_s": generate_s}

    def _memory(self, run: _SimRun):
        memory = self.api.IdealMemory()
        memory.load_image(run.image)
        return memory

    def run_pass(self, recorder: SpanRecorder | None = None) -> Pass:
        seconds = 0.0
        failed = 0
        ops, errors = [], []
        for run in self.runs:
            run.predictor.reset()
            memory, predictor, hook = self._memory(run), run.predictor, None
            if recorder:
                memory = Delegate(
                    memory, recorder, "memory", ("submit_load", "submit_store"), "memory.calls"
                )
                predictor = Delegate(
                    predictor, recorder, "frontend.predict", ("predict",), "frontend.predict_calls"
                )
                hook = CycleClock(recorder)
                op = recorder.begin(OP, run.key)
            start = perf_counter()
            result = run.processor.run(
                run.program,
                memory=memory,
                predictor=predictor,
                initial_registers=list(run.registers),
                cycle_hook=hook,
            )
            elapsed = perf_counter() - start
            if recorder:
                recorder.finish(op)
            seconds += elapsed
            ops.append((run.key, elapsed))
            problems = self._check(run, result)
            if problems:
                failed += 1
                errors.append(f"{run.key}: {', '.join(problems)}")
        return Pass(seconds, len(self.runs), failed, ops, errors)

    def _check(self, run: _SimRun, result) -> list[str]:
        reference = run.reference
        problems = []
        if result.cycles != run.cycles:
            problems.append(f"{result.cycles} cycles, pinned {run.cycles}")
        if result.registers != reference.registers:
            problems.append("registers differ from the oracle")
        if result.memory != reference.memory:
            problems.append("memory differs from the oracle")
        if self.commit_stream(result.committed) != reference.commits:
            problems.append("commit stream differs from the oracle")
        if not result.halted:
            problems.append("did not halt")
        return problems

    def count_pass(self) -> tuple[dict[str, float], list[str]]:
        """Cycles and window occupancy per run, from an untimed CountingTracer pass."""
        rows, errors = {}, []
        for run in self.runs:
            run.predictor.reset()
            tracer = self.api.CountingTracer()
            run.processor.run(
                run.program,
                memory=self._memory(run),
                predictor=run.predictor,
                initial_registers=list(run.registers),
                tracer=tracer,
            )
            stats = tracer.snapshot()
            if stats["cycles"] != run.cycles:
                errors.append(f"{run.key}: counted {stats['cycles']} cycles, pinned {run.cycles}")
            rows[f"sim.cycles.{run.key}"] = stats["cycles"]
            # the useful share of the engine's O(n) per-cycle station walks
            rows[f"ultrascalar.occupancy_frac.{run.key}"] = stats["commit.window_occupancy"] / (
                run.n * stats["cycles"]
            )
        return rows, errors


class VerifyFuzz(Workload):
    """Differential fuzzing as ``python -m repro verify`` runs each case."""

    name = "verify-fuzz"
    ops_per_pass = FUZZ_CASES

    def setup(self, seed: int) -> dict[str, float]:
        (self.fuzz,) = fresh_import("repro.verify.fuzz")
        start = perf_counter()
        rng = random.Random(seed)
        self.case_seeds = [rng.getrandbits(63) for _ in range(FUZZ_CASES)]
        generate_s = perf_counter() - start
        return {"runner.build_jobs_s": 0.0, "workloads.generate_s": generate_s}

    def run_pass(self, recorder: SpanRecorder | None = None) -> Pass:
        seconds = 0.0
        ops, errors = [], []
        for case_seed in self.case_seeds:
            op = recorder.begin(OP, "case") if recorder else -1
            start = perf_counter()
            case = self.fuzz.generate_case(case_seed, FUZZ_CASE_SIZE)
            failure = self.fuzz.run_case(case)
            elapsed = perf_counter() - start
            if recorder:
                recorder.finish(op)
            seconds += elapsed
            ops.append(("case", elapsed))
            if failure is not None:
                errors.append(f"case seed {case_seed}: {failure.describe()[:1]}")
        return Pass(seconds, len(self.case_seeds), len(errors), ops, errors)


WORKLOADS = {cls.name: cls for cls in (Reproduce, Simulate, VerifyFuzz)}

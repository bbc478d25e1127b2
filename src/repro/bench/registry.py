"""The registry of hot-path benchmarks.

Each :class:`Benchmark` names one hot path and knows how to build a
timed thunk for it.  Setup (program generation, engine-independent
state) happens in :meth:`Benchmark.make`, *outside* the timed region;
the returned thunk performs exactly the work the benchmark is named
for.  Benchmarks are deterministic in structure: fixed seeds, fixed
sizes, so two runs of the same tree produce artifacts that differ only
in their timings.

Groups (mirroring the subsystems the ROADMAP cares about):

* ``engine`` — full-program throughput of the three paper designs
  (us1 / us2 / hybrid), driven through :mod:`repro.api` exactly the
  way users drive them, across window sizes, plus us1 at the wide
  windows (64, 256 and 512 stations) the large-*n* experiments sweep;
* ``recurrence`` — the scheduling recurrence E14 and E15 time US-I
  with, on ``engine.us1.n256``'s program and window: the two rows give
  the engine-to-recurrence cost ratio;
* ``workloads`` — drawing one of E15's ``random_ilp`` programs: the
  random stream plus instruction and program construction;
* ``frontend`` — the fetch unit on its own: slicing a long
  straight-line program, and following a loop kernel's path with a
  bimodal predictor;
* ``cspp`` — the behavioural cyclic-segmented-scan kernel the
  datapaths are built from;
* ``network`` — the Ultrascalar II argument-routing reference;
* ``circuits`` — building and settling E9's two Ultrascalar II grid
  netlists, the mesh-of-trees grid (the largest of E9's gate-level
  circuits) and the linear grid, timed with the garbage collector on;
* ``isa`` — the two-pass assembler's throughput;
* ``runner`` — the result cache's store/hit path;
* ``verify`` — fuzz program generation, and the differential runs under
  the invariant checker that ``repro verify`` makes of each case (the
  verify CLI's hot loop), next to the same runs without the checker:
  the gap between those two rows is the checker's cost.

The ``--quick`` subset keeps at least one representative per group
(always covering all three processor designs, and all three ``verify``
rows) sized for CI smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

#: canonical registry: name -> Benchmark, in registration order
REGISTRY: dict[str, "Benchmark"] = {}


@dataclass(frozen=True)
class Benchmark:
    """One registered hot-path benchmark."""

    name: str
    group: str
    title: str
    #: builds the timed thunk; runs once per benchmark, untimed
    make: Callable[[], Callable[[], Any]]
    #: part of the ``--quick`` CI subset
    quick: bool = False
    #: structural parameters (design, window, size, ...) for the artifact
    metadata: dict[str, Any] = field(default_factory=dict)
    #: time with the garbage collector on, so the row's cost includes the
    #: collections its allocations set off (recorded as metadata ``gc``)
    gc: bool = False


def register(benchmark: Benchmark) -> Benchmark:
    """Add *benchmark* to the registry; duplicate names are a bug."""
    if benchmark.name in REGISTRY:
        raise ValueError(f"duplicate benchmark name {benchmark.name!r}")
    REGISTRY[benchmark.name] = benchmark
    return benchmark


def select(
    *, quick: bool = False, substrings: tuple[str, ...] = ()
) -> list[Benchmark]:
    """The benchmarks a run should execute, in registration order.

    *quick* restricts to the CI subset; *substrings* (when non-empty)
    keeps benchmarks whose name contains any of them.
    """
    chosen = [b for b in REGISTRY.values() if b.quick or not quick]
    if substrings:
        chosen = [b for b in chosen if any(s in b.name for s in substrings)]
    return chosen


# ----------------------------------------------------------------------
# engine throughput (us1 / us2 / hybrid via repro.api)


def _engine_thunk(design: str, window: int, count: int, fetch_width: int) -> Callable[[], Any]:
    from repro.api import ProcessorConfig, build_processor
    from repro.workloads.generators import random_ilp

    workload = random_ilp(count, 0.5, seed=1999)
    processor = build_processor(
        design, ProcessorConfig(window_size=window, fetch_width=fetch_width)
    )
    program = workload.program
    registers = workload.registers_for()

    def thunk() -> None:
        processor.run(program, initial_registers=list(registers))

    return thunk


def _register_engine(
    name: str, design: str, window: int, count: int, quick: bool, fetch_width: int = 4
) -> None:
    register(
        Benchmark(
            name=name,
            group="engine",
            title=f"{design} end-to-end run, window {window}",
            make=lambda: _engine_thunk(design, window, count, fetch_width),
            quick=quick,
            metadata={
                "design": design,
                "window_size": window,
                "fetch_width": fetch_width,
                "instructions": count,
                "seed": 1999,
            },
        )
    )


def _register_engines() -> None:
    for design in ("us1", "us2", "hybrid"):
        for window, count, quick in ((8, 48, True), (32, 192, False)):
            _register_engine(f"engine.{design}.w{window}", design, window, count, quick)
    for window, count, quick in ((64, 256, True), (512, 2048, False)):
        _register_engine(f"engine.us1.n{window}", "us1", window, count, quick)
    # the fetch width perfbench's simulate workload scales to at n = 256
    _register_engine("engine.us1.n256", "us1", 256, 1024, True, fetch_width=32)


# ----------------------------------------------------------------------
# the scheduling recurrence on an engine row's program


def _recurrence_thunk(window: int, count: int, fetch_width: int) -> Callable[[], Any]:
    from repro.baseline.dataflow import dataflow_schedule
    from repro.isa.interpreter import MachineState, run_program
    from repro.workloads.generators import random_ilp

    workload = random_ilp(count, 0.5, seed=1999)
    program = workload.program
    registers = workload.registers_for()

    def thunk() -> None:
        trace = run_program(program, state=MachineState(list(registers), {})).trace
        dataflow_schedule(trace, fetch_width=fetch_width, window_size=window)

    return thunk


def _register_recurrence() -> None:
    register(
        Benchmark(
            name="recurrence.us1.n256",
            group="recurrence",
            title="interpreter + US-I scheduling recurrence, window 256",
            make=lambda: _recurrence_thunk(256, 1024, 32),
            quick=True,
            metadata={
                "design": "us1",
                "window_size": 256,
                "fetch_width": 32,
                "instructions": 1024,
                "seed": 1999,
            },
        )
    )


# ----------------------------------------------------------------------
# random program generation


def _random_ilp_thunk(count: int, density: float, seed: int) -> Callable[[], Any]:
    from repro.workloads.generators import random_ilp

    def thunk() -> None:
        random_ilp(count, density, seed=seed)

    return thunk


def _register_workloads() -> None:
    register(
        Benchmark(
            name="workloads.random_ilp.n4000",
            group="workloads",
            title="draw E15's 4000-instruction random_ilp program, density 0.5",
            make=lambda: _random_ilp_thunk(4000, 0.5, 507),
            quick=True,
            metadata={"instructions": 4000, "density": 0.5, "seed": 507},
        )
    )


# ----------------------------------------------------------------------
# fetch on its own


def _fetch_ilp_thunk(count: int, width: int) -> Callable[[], Any]:
    from repro.frontend.branch_predictor import AlwaysNotTaken
    from repro.frontend.fetch import FetchUnit
    from repro.workloads.generators import random_ilp

    program = random_ilp(count, 0.5, seed=1999).program

    def thunk() -> None:
        fetch = FetchUnit(program, AlwaysNotTaken(), width=width)
        while not fetch.stalled():
            fetch.fetch_cycle()

    return thunk


def _fetch_matmul_thunk(size: int, width: int) -> Callable[[], Any]:
    from repro.frontend.branch_predictor import BimodalPredictor
    from repro.frontend.fetch import FetchUnit
    from repro.isa.interpreter import MachineState, run_program
    from repro.workloads.kernels import matmul

    workload = matmul(size)
    program = workload.program
    state = MachineState(workload.registers_for(), dict(workload.memory_image))
    trace = run_program(program, state=state).trace

    def thunk() -> None:
        # Follow the architectural path as an engine would: train the
        # predictor on each delivered branch, redirect after a mispredict.
        predictor = BimodalPredictor()
        fetch = FetchUnit(program, predictor, width=width)
        position = 0
        while position < len(trace):
            for index in fetch.fetch_cycle():
                step = trace[position]
                if index != step.static_index:
                    break  # the wrong path past a mispredicted branch
                if step.instruction.is_branch:
                    predictor.update(index, step.taken)
                position += 1
                if position == len(trace):
                    return
            if fetch.pc != trace[position].static_index:
                fetch.redirect(trace[position].static_index)

    return thunk


def _register_frontend() -> None:
    register(
        Benchmark(
            name="frontend.fetch.ilp",
            group="frontend",
            title="fetch a 4000-instruction straight-line program, width 64",
            make=lambda: _fetch_ilp_thunk(4000, 64),
            quick=True,
            metadata={"instructions": 4000, "width": 64, "seed": 1999},
        )
    )
    register(
        Benchmark(
            name="frontend.fetch.matmul",
            group="frontend",
            title="fetch matmul(6)'s path with a bimodal predictor, width 32",
            make=lambda: _fetch_matmul_thunk(6, 32),
            metadata={"kernel": "matmul", "size": 6, "width": 32, "predictor": "bimodal"},
        )
    )


# ----------------------------------------------------------------------
# CSPP scan kernel


def _cspp_thunk(n: int) -> Callable[[], Any]:
    from repro.circuits.cspp import cyclic_segmented_copy

    xs = list(range(n))
    segments = [i % 8 == 0 for i in range(n)]

    def thunk() -> None:
        cyclic_segmented_copy(xs, segments)

    return thunk


def _register_cspp() -> None:
    for n, quick in ((512, True), (4096, False)):
        register(
            Benchmark(
                name=f"cspp.scan.n{n}",
                group="cspp",
                title=f"cyclic segmented scan over {n} positions",
                make=lambda n=n: _cspp_thunk(n),
                quick=quick,
                metadata={"positions": n, "segment_stride": 8},
            )
        )


# ----------------------------------------------------------------------
# mesh-of-trees argument routing (the US-II network reference)


def _route_thunk(n: int, num_registers: int) -> Callable[[], Any]:
    from repro.circuits.grid import RegisterBinding, route_arguments

    initial = [(r * 3 + 1, True) for r in range(num_registers)]
    writes = [
        RegisterBinding(reg=i % num_registers, value=i, ready=i % 3 != 0)
        if i % 4 != 0
        else None
        for i in range(n)
    ]
    reads = [
        [(i + 1) % num_registers, (i * 7 + 3) % num_registers] for i in range(n)
    ]

    def thunk() -> None:
        route_arguments(num_registers, initial, writes, reads)

    return thunk


def _register_network() -> None:
    for n, quick in ((128, True), (1024, False)):
        register(
            Benchmark(
                name=f"network.route.n{n}",
                group="network",
                title=f"US-II argument routing, {n} stations",
                make=lambda n=n: _route_thunk(n, 32),
                quick=quick,
                metadata={"stations": n, "num_registers": 32},
            )
        )


# ----------------------------------------------------------------------
# gate-level netlists: build + settle the US-II grids


def _grid_thunk(network: str, n: int) -> Callable[[], Any]:
    from repro.circuits import grid

    circuit = getattr(grid, network)
    # the E9 (gate_depth) stimulus
    batch = ([(1, True)] * n, [None] * n, [[0, 0]] * n)

    def thunk() -> None:
        circuit(n, n).settle_time(*batch)

    return thunk


def _register_circuits() -> None:
    rows = (
        ("tgrid", "TreeGridNetwork", "the mesh-of-trees grid", 16, True),
        ("tgrid", "TreeGridNetwork", "the mesh-of-trees grid", 32, False),
        ("grid", "GridNetwork", "the linear grid", 32, False),
    )
    for short, network, title, n, quick in rows:
        register(
            Benchmark(
                name=f"circuits.{short}.n{n}",
                group="circuits",
                title=f"build + settle {title}, n = L = {n}",
                make=lambda network=network, n=n: _grid_thunk(network, n),
                quick=quick,
                metadata={"stations": n, "num_registers": n},
                gc=True,
            )
        )


# ----------------------------------------------------------------------
# assembler


def _isa_thunk(size: int) -> Callable[[], Any]:
    from repro.isa.assembler import assemble
    from repro.workloads.kernels import matmul

    source = matmul(size).program.disassemble()

    def thunk() -> None:
        assemble(source)

    return thunk


def _register_isa() -> None:
    register(
        Benchmark(
            name="isa.assemble.matmul",
            group="isa",
            title="assemble the matmul kernel",
            make=lambda: _isa_thunk(4),
            quick=True,
            metadata={"kernel": "matmul", "size": 4},
        )
    )


# ----------------------------------------------------------------------
# runner result-cache store/hit path


def _cache_thunk(entries: int) -> Callable[[], Any]:
    import shutil
    import tempfile

    from repro.runner.cache import ResultCache

    def thunk() -> None:
        root = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            cache = ResultCache(root)
            for i in range(entries):
                kwargs = {"size": i, "mode": "bench"}
                cache.put("bench", kwargs, f"report {i}\n" * 8, 0.01)
            for i in range(entries):
                kwargs = {"size": i, "mode": "bench"}
                entry = cache.get("bench", kwargs)
                assert entry is not None
            assert cache.get("bench", {"size": -1}) is None  # miss path
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return thunk


def _register_runner() -> None:
    register(
        Benchmark(
            name="runner.cache.roundtrip",
            group="runner",
            title="result cache store + hit + miss path",
            make=lambda: _cache_thunk(32),
            quick=True,
            metadata={"entries": 32},
        )
    )


# ----------------------------------------------------------------------
# verify-fuzz program generation and differential runs


def _fuzz_thunk(cases: int, size: int) -> Callable[[], Any]:
    from repro.verify.fuzz import generate_case

    def thunk() -> None:
        for seed in range(cases):
            generate_case(seed, size)

    return thunk


def _fuzz_run_thunk(cases: int, size: int, check_invariants: bool) -> Callable[[], Any]:
    from repro.verify.fuzz import generate_case, run_case

    generated = [generate_case(seed, size) for seed in range(cases)]

    def thunk() -> None:
        for case in generated:
            run_case(case, check_invariants=check_invariants)

    return thunk


def _register_verify() -> None:
    register(
        Benchmark(
            name="verify.fuzz.generate",
            group="verify",
            title="fuzz program generation (16 cases of 48)",
            make=lambda: _fuzz_thunk(16, 48),
            quick=True,
            metadata={"cases": 16, "size": 48},
        )
    )
    register(
        Benchmark(
            name="verify.fuzz.run_case",
            group="verify",
            title="differential runs with invariant checks (16 cases of 48)",
            make=lambda: _fuzz_run_thunk(16, 48, check_invariants=True),
            quick=True,
            metadata={"cases": 16, "size": 48},
        )
    )
    register(
        Benchmark(
            name="verify.fuzz.run_case.unchecked",
            group="verify",
            title="differential runs without invariant checks (16 cases of 48)",
            make=lambda: _fuzz_run_thunk(16, 48, check_invariants=False),
            quick=True,
            metadata={"cases": 16, "size": 48, "check_invariants": False},
        )
    )


_register_engines()
_register_recurrence()
_register_workloads()
_register_frontend()
_register_cspp()
_register_network()
_register_circuits()
_register_isa()
_register_runner()
_register_verify()

"""Run real program kernels on the Ultrascalar: sort, matmul, Fibonacci.

Usage::

    python examples/kernels_demo.py

Shows data-dependent branch behaviour (bubble sort under different
predictors), nested-loop ILP (matrix multiply vs window size), a serial
recurrence hitting its dataflow limit (Fibonacci), and the Section 7
distributed cluster cache cutting shared-memory traffic.
"""

from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.frontend.branch_predictor import AlwaysNotTaken, BimodalPredictor, GSharePredictor
from repro.memory import ClusteredMemory
from repro.util.tables import Table
from repro.workloads import bubble_sort, fib_value, fibonacci, matmul, repeated_reduction


def run(workload, window=16, predictor=None, memory=None):
    config = ProcessorConfig(window_size=window, fetch_width=4, max_cycles=5_000_000)
    mem = memory if memory is not None else IdealMemory()
    mem.load_image(workload.memory_image)
    return build_processor("us1", config).run(
        workload.program,
        memory=mem,
        predictor=predictor,
        initial_registers=workload.registers_for(),
    )


def main() -> None:
    # --- bubble sort: the predictor gauntlet ---
    data = [23, 5, 91, 1, 44, 17, 8, 62, 3, 70]
    table = Table(
        ["Predictor", "cycles", "IPC", "mispredictions", "squashed"],
        title=f"Bubble sort of {len(data)} values (data-dependent branches)",
    )
    for name, predictor in [
        ("oracle", None),
        ("not-taken", AlwaysNotTaken()),
        ("bimodal", BimodalPredictor(size=128)),
        ("gshare", GSharePredictor(size=512)),
    ]:
        result = run(bubble_sort(data), predictor=predictor)
        sorted_out = [result.memory[1024 + 4 * i] for i in range(len(data))]
        assert sorted_out == sorted(data)
        table.add_row([name, result.cycles, round(result.ipc, 2),
                       result.mispredictions, result.squashed])
    print(table.render())
    print()

    # --- matrix multiply: window scaling on nested loops ---
    table = Table(["window", "cycles", "IPC"], title="3x3 integer matmul vs window size")
    for window in (4, 8, 16, 32, 64):
        result = run(matmul(3), window=window)
        table.add_row([window, result.cycles, round(result.ipc, 2)])
    print(table.render())
    print()

    # --- Fibonacci: a serial recurrence pins IPC at the dataflow limit ---
    result = run(fibonacci(25), window=64)
    print(f"fib(25) = {result.registers[3]} (expected {fib_value(25)}); "
          f"IPC = {result.ipc:.2f} — the loop's 2-op recurrence in a 5-op body caps it at 2.5")
    print()

    # --- distributed cluster cache (Section 7) ---
    table = Table(
        ["array passes", "local hits", "shared accesses", "bandwidth saved"],
        title="Distributed cluster cache on repeated reductions",
    )
    for passes in (1, 4, 8):
        memory = ClusteredMemory(cluster_size=16)
        run(repeated_reduction(8, passes), memory=memory)
        stats = memory.stats
        table.add_row([passes, stats.local_hits, stats.shared_accesses,
                       f"{stats.bandwidth_saved * 100:.0f}%"])
    print(table.render())


if __name__ == "__main__":
    main()

"""Engine throughput at large n.

Addresses the repro-band concern ("behavioral model easy; too slow for
large-n studies") with a real pytest-benchmark timing of the
event-driven ring, and sweeps IPC versus window size at scales the
paper cares about (window 128+, the size its 1 cm² hybrid targets).
"""

from repro.ultrascalar import IdealMemory, ProcessorConfig, make_ultrascalar1
from repro.util.tables import Table
from repro.workloads import random_ilp

WORKLOAD = random_ilp(1200, 0.5, seed=77)


def run_object_model(window: int = 64, fetch_width: int = 32) -> float:
    config = ProcessorConfig(window_size=window, fetch_width=fetch_width)
    processor = make_ultrascalar1(
        WORKLOAD.program, config, memory=IdealMemory(),
        initial_registers=WORKLOAD.registers_for(),
    )
    return processor.run().ipc


def test_bench_object_model_throughput(benchmark):
    ipc = benchmark(run_object_model)
    assert ipc > 1.0


def test_bench_window_ipc_sweep(once):
    """IPC vs window size at large n on the Ultrascalar I ring."""

    def sweep():
        return [(window, run_object_model(window, window)) for window in (16, 64, 256, 1024)]

    rows = once(sweep)
    table = Table(["window n", "IPC"], title="Large-n IPC sweep (Ultrascalar I ring)")
    for window, ipc in rows:
        table.add_row([window, round(ipc, 2)])
    print()
    print(table.render())
    ipcs = [ipc for _, ipc in rows]
    assert ipcs == sorted(ipcs)  # monotone until saturation

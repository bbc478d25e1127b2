"""Study the memory system: bandwidth, banking, and the trace cache.

Usage::

    python examples/memory_system_study.py

Runs a bandwidth-bound load stream through the interleaved cache behind
fat trees of varying fatness M(n), showing how root bandwidth throttles
throughput (the paper's 'memory bandwidth is the dominating factor');
sweeps bank counts; and demonstrates the trace cache raising effective
fetch bandwidth across taken control transfers.
"""

from repro.api import CachedMemory, ProcessorConfig, build_processor
from repro.frontend.branch_predictor import AlwaysNotTaken
from repro.frontend.fetch import FetchUnit
from repro.memory.interleaved_cache import InterleavedCache
from repro.memory.trace_cache import TraceCache
from repro.network.fattree import FatTree, bandwidth_constant, bandwidth_linear, bandwidth_power
from repro.util.tables import Table
from repro.workloads import jump_chain, parallel_loads


def run_loads(workload, bandwidth, banks=8):
    tree = FatTree(64, bandwidth)
    cache = InterleavedCache(banks=banks, lines_per_bank=64, words_per_line=1, fat_tree=tree)
    memory = CachedMemory(cache)
    memory.load_image(workload.memory_image)
    config = ProcessorConfig(window_size=64, fetch_width=16)
    result = build_processor("us1", config).run(
        workload.program, memory=memory, initial_registers=workload.registers_for()
    )
    return result, cache.stats


def main() -> None:
    workload = parallel_loads(48)
    table = Table(
        ["M(n)", "cycles", "IPC", "network-denied cycles"],
        title=f"Root-bandwidth sweep on {workload.name} (independent loads)",
    )
    for bandwidth, label in [
        (bandwidth_constant(1.0), "Θ(1)"),
        (bandwidth_constant(4.0), "Θ(1), 4 wide"),
        (bandwidth_power(0.5), "Θ(√n)"),
        (bandwidth_linear(), "Θ(n)"),
    ]:
        result, stats = run_loads(workload, bandwidth)
        table.add_row([label, result.cycles, round(result.ipc, 2), stats.network_denied_cycles])
    print(table.render())
    print()

    banked = Table(
        ["banks", "cycles", "bank-conflict cycles"],
        title=f"Bank sweep on {workload.name} at full root bandwidth",
    )
    for banks in (1, 2, 4, 8, 16):
        result, stats = run_loads(workload, bandwidth_linear(), banks=banks)
        banked.add_row([banks, result.cycles, stats.bank_conflict_cycles])
    print(banked.render())
    print()

    # --- trace cache: fetching across taken control transfers ---
    chain = jump_chain(blocks=16)
    plain = FetchUnit(chain.program, AlwaysNotTaken(), width=16)
    traced = FetchUnit(
        chain.program, AlwaysNotTaken(), width=16,
        trace_cache=TraceCache(num_sets=128, trace_length=16, max_branches=3),
    )

    def fetch_all(fetch) -> int:
        cycles = 0
        while not fetch.stalled() and cycles < 200:
            fetch.fetch_cycle()
            cycles += 1
        return cycles

    cold = fetch_all(traced)       # first pass fills the trace cache
    traced.redirect(0)
    warm = fetch_all(traced)
    conventional = fetch_all(plain)
    print(f"cycles to fetch {len(chain.program)} instructions across 16 jumps (16-wide):")
    print(f"  conventional fetch:     {conventional} cycles (stops at every taken jump)")
    print(f"  trace cache, cold pass: {cold} cycles")
    print(f"  trace cache, warm pass: {warm} cycles "
          f"({traced.trace_cache.stats.hits} hits)")


if __name__ == "__main__":
    main()

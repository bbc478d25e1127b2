"""Tour of the paper's future-work features, implemented.

Usage::

    python examples/extensions_tour.py

1. Shared-ALU scheduling (Ultrascalar Memo 2): decouple window size
   from issue width.
2. Memory renaming (Section 7): store-to-load forwarding inside the
   window skips the memory system.
3. Self-timed operation (Section 7): results travel at wire speed, so
   near-neighbour dependence is cheap and far dependence is dear.
"""

from repro.api import IdealMemory, ProcessorConfig, build_processor
from repro.ultrascalar.trace_view import render_pipeline
from repro.util.tables import Table
from repro.workloads import independent_ops, spaced_chain, store_load_pairs


def run(workload, load_latency=1, num_alus=None, store_forwarding=False, self_timed=False):
    config = ProcessorConfig(
        window_size=16,
        fetch_width=8,
        num_alus=num_alus,
        store_forwarding=store_forwarding,
        self_timed=self_timed,
    )
    memory = IdealMemory(load_latency=load_latency)
    memory.load_image(workload.memory_image)
    return build_processor("us1", config).run(
        workload.program,
        memory=memory,
        initial_registers=workload.registers_for(),
    )


def main() -> None:
    # --- 1. shared ALUs ---
    table = Table(
        ["ALU pool", "cycles", "IPC"],
        title="Memo-2 shared-ALU scheduler on 40 independent ops (window 16)",
    )
    for alus in (1, 2, 4, 8, None):
        result = run(independent_ops(40), num_alus=alus)
        table.add_row([alus if alus else "per-station", result.cycles, round(result.ipc, 2)])
    print(table.render())
    print()

    # --- 2. memory renaming ---
    table = Table(
        ["load latency", "plain cycles", "renaming cycles", "forwarded"],
        title="Store-to-load forwarding (Section 7 memory renaming)",
    )
    for latency in (1, 4, 8):
        plain = run(store_load_pairs(6), load_latency=latency)
        renamed = run(store_load_pairs(6), load_latency=latency, store_forwarding=True)
        table.add_row([latency, plain.cycles, renamed.cycles, renamed.forwarded_loads])
    print(table.render())
    print()

    # --- 3. self-timed ---
    table = Table(
        ["dependence distance", "global clock", "self-timed", "cycles per link"],
        title="Self-timed forwarding: locality matters (Section 7)",
    )
    for distance in (1, 4, 8):
        links = 48 // distance
        plain = run(spaced_chain(48, distance))
        timed = run(spaced_chain(48, distance), self_timed=True)
        table.add_row([distance, plain.cycles, timed.cycles, round(timed.cycles / links, 2)])
    print(table.render())
    print()

    # --- bonus: pipeline view of the shared-ALU squeeze ---
    result = run(independent_ops(12), num_alus=2)
    print("Pipeline trace with a 2-ALU pool (columns of f = ALU starvation):")
    print(render_pipeline(result, max_instructions=13))


if __name__ == "__main__":
    main()

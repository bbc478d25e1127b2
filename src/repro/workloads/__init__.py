"""Workload generators for the experiments.

Includes the paper's own 8-instruction example (Figures 1 and 3) plus
the synthetic kernels the experiments and tests sweep: dependency chains
(ILP = 1), independent streams (ILP = n), tunable random dependency
graphs, loop kernels with memory traffic (daxpy, reduction), and
pointer chasing (serial memory).
"""

from repro.workloads.kernels import (
    bubble_sort,
    fib_value,
    fibonacci,
    matmul,
)
from repro.workloads.generators import (
    Workload,
    daxpy_loop,
    dependency_chain,
    independent_ops,
    jump_chain,
    paper_sequence,
    parallel_loads,
    spaced_chain,
    store_load_pairs,
    pointer_chase,
    random_ilp,
    reduction_loop,
    repeated_reduction,
)

__all__ = [
    "Workload",
    "bubble_sort",
    "fib_value",
    "fibonacci",
    "matmul",
    "daxpy_loop",
    "dependency_chain",
    "independent_ops",
    "jump_chain",
    "paper_sequence",
    "parallel_loads",
    "spaced_chain",
    "store_load_pairs",
    "pointer_chase",
    "random_ilp",
    "reduction_loop",
    "repeated_reduction",
]

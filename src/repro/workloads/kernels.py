"""Realistic program kernels: sorting, matrix multiply, Fibonacci.

These stress the full machine — nested loops, data-dependent branches
(a predictor's worst case), and mixed memory/ALU traffic — and give the
examples and integration tests programs with recognisable behaviour.
"""

from __future__ import annotations

from repro.isa.assembler import assemble
from repro.workloads.generators import Workload


def bubble_sort(values: list[int]) -> Workload:
    """Bubble-sort *values* in memory (data-dependent branches).

    The array lives at address 1024; the result is the sorted array.
    """
    if not values:
        raise ValueError("need at least one value")
    if any(not 0 <= v < (1 << 31) for v in values):
        raise ValueError("values must be non-negative 31-bit ints")
    count = len(values)
    source = f"""
        # r1 = outer counter, r2 = inner pointer, r3 = inner limit
        li   r1, {count - 1}
        beq  r1, r0, done
      outer:
        li   r2, 1024
        li   r4, {4 * (count - 1)}
        add  r3, r2, r4
      inner:
        lw   r5, 0(r2)
        lw   r6, 4(r2)
        bge  r6, r5, noswap      # already ordered
        sw   r6, 0(r2)
        sw   r5, 4(r2)
      noswap:
        addi r2, r2, 4
        blt  r2, r3, inner
        addi r1, r1, -1
        bne  r1, r0, outer
      done:
        halt
    """
    image = {1024 + 4 * i: v for i, v in enumerate(values)}
    return Workload(
        name=f"bubble-sort-{count}",
        program=assemble(source),
        memory_image=image,
        description="Bubble sort (data-dependent branches, swap stores)",
    )


def matmul(size: int) -> Workload:
    """Dense ``size x size`` integer matrix multiply C = A x B.

    A at 4096, B at 8192, C at 12288; row-major; triple nested loop.
    """
    if size < 1:
        raise ValueError("size must be positive")
    row_bytes = 4 * size
    source = f"""
        li   r1, 0               # i
      iloop:
        li   r2, 0               # j
      jloop:
        li   r3, 0               # k
        li   r4, 0               # acc
      kloop:
        # A[i][k]
        li   r5, {row_bytes}
        mul  r6, r1, r5
        slli r7, r3, 2
        add  r6, r6, r7
        addi r6, r6, 4096
        lw   r8, 0(r6)
        # B[k][j]
        mul  r6, r3, r5
        slli r7, r2, 2
        add  r6, r6, r7
        addi r6, r6, 8192
        lw   r9, 0(r6)
        mul  r10, r8, r9
        add  r4, r4, r10
        addi r3, r3, 1
        li   r11, {size}
        blt  r3, r11, kloop
        # C[i][j] = acc
        li   r5, {row_bytes}
        mul  r6, r1, r5
        slli r7, r2, 2
        add  r6, r6, r7
        addi r6, r6, 12288
        sw   r4, 0(r6)
        addi r2, r2, 1
        li   r11, {size}
        blt  r2, r11, jloop
        addi r1, r1, 1
        li   r11, {size}
        blt  r1, r11, iloop
        halt
    """
    image = {}
    for i in range(size):
        for j in range(size):
            image[4096 + 4 * (i * size + j)] = i + j + 1          # A
            image[8192 + 4 * (i * size + j)] = (i * j) % 5 + 1    # B
    return Workload(
        name=f"matmul-{size}",
        program=assemble(source),
        memory_image=image,
        description="Dense integer matrix multiply (nested loops)",
    )


def fibonacci(n: int) -> Workload:
    """Iterative Fibonacci: F(n) into r3 (serial RAW chain + loop)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    source = f"""
        li   r1, {n}
        li   r2, 0               # F(0)
        li   r3, 1               # F(1)
        beq  r1, r0, base
        li   r4, 1               # counter
      loop:
        add  r5, r2, r3
        mov  r2, r3
        mov  r3, r5
        addi r4, r4, 1
        blt  r4, r1, loop
        j    done
      base:
        li   r3, 0
      done:
        halt
    """
    return Workload(
        name=f"fib-{n}",
        program=assemble(source),
        description="Iterative Fibonacci (tight serial loop)",
    )


def fib_value(n: int) -> int:
    """Reference F(n) for assertions."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a

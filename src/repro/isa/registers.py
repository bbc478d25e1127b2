"""Machine parameterization: the number of logical registers.

The paper analyzes complexity as a function of ``L`` (logical registers,
an ISA property) and the register width ``w``; its empirical layouts use
``L = 32`` and ``w = 32``.  The width is fixed at 32
(:data:`repro.util.bitops.WORD_BITS`); :class:`MachineSpec` carries ``L``
through every layer of the system — the assembler validates register
numbers against it, the datapaths size their prefix networks from it, and
the VLSI model derives wire counts from it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """Architectural parameters shared by all processor models.

    Attributes:
        num_registers: ``L``, the number of logical registers.
    """

    num_registers: int = 32

    def __post_init__(self) -> None:
        if self.num_registers < 1:
            raise ValueError(f"need at least one register, got {self.num_registers}")

    @property
    def L(self) -> int:
        """The paper's ``L`` — number of logical registers."""
        return self.num_registers

    def validate_register(self, reg: int) -> int:
        """Return *reg* if it names a valid logical register, else raise."""
        if not 0 <= reg < self.num_registers:
            raise ValueError(
                f"register r{reg} out of range for machine with {self.num_registers} registers"
            )
        return reg


"""The stable top-level facade: build a processor, run a program.

Everything a script needs for the common case lives here, so user code
(and the bundled ``examples/``) never has to know which module inside
:mod:`repro.ultrascalar` implements which datapath::

    from repro.api import ProcessorConfig, build_processor

    processor = build_processor("us1", ProcessorConfig(window_size=8))
    result = processor.run(program)
    print(result.ipc)

Kinds map onto the paper's three designs: ``"us1"`` (Ultrascalar I,
wrap-around ring, per-station refill), ``"us2"`` (Ultrascalar II,
whole-batch refill), and ``"hybrid"`` (US-II clusters on a US-I ring;
set ``cluster_size``).  ``run(program, tracer=...)`` attaches a
telemetry tracer (see :mod:`repro.telemetry`); by default tracing is
off and runs are byte-identical to the pre-telemetry engines.

The deep modules remain importable — this facade adds a stability
layer, it does not hide anything.  Re-exported here so one import
serves most scripts: :class:`ProcessorConfig`,
:class:`ProcessorResult`, :class:`TimingRecord`, the memory systems,
the tracers, and the :func:`collecting` session helper (every engine
built inside a ``with collecting() as tracer:`` block reports to
*tracer* — how the runner and the bench harness gather counters from
code that never passes ``tracer=`` explicitly).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry import CountingTracer, EventTracer, NullTracer, Tracer, collecting
from repro.ultrascalar import (
    CachedMemory,
    IdealMemory,
    MemorySystem,
    ProcessorConfig,
    ProcessorResult,
    TimingRecord,
    make_hybrid,
)

__all__ = [
    "CachedMemory",
    "CountingTracer",
    "EventTracer",
    "IdealMemory",
    "MemorySystem",
    "NullTracer",
    "PROCESSOR_KINDS",
    "Processor",
    "ProcessorConfig",
    "ProcessorResult",
    "TimingRecord",
    "Tracer",
    "build_processor",
    "collecting",
    "run",
]

#: canonical kind names accepted by :func:`build_processor` (aliases in
#: parentheses): paper Section 4 / 5 / 6 designs respectively
PROCESSOR_KINDS = ("us1", "us2", "hybrid")

_ALIASES = {
    "us1": "us1",
    "ultrascalar1": "us1",
    "ring": "us1",
    "us2": "us2",
    "ultrascalar2": "us2",
    "batch": "us2",
    "hybrid": "hybrid",
}


def _normalize_kind(kind: str) -> str:
    """Resolve a kind/alias to canonical form; helpful error otherwise."""
    canonical = _ALIASES.get(kind.lower().replace("-", "").replace("_", ""))
    if canonical is None:
        close = difflib.get_close_matches(kind.lower(), sorted(_ALIASES), n=2)
        hint = f" (did you mean {' or '.join(map(repr, close))}?)" if close else ""
        raise ValueError(
            f"unknown processor kind {kind!r}{hint}; "
            f"expected one of {', '.join(map(repr, PROCESSOR_KINDS))}"
        )
    return canonical


@dataclass(frozen=True)
class Processor:
    """A configured processor design, ready to run programs.

    Immutable and reusable: each :meth:`run` builds a fresh engine
    around the program, so one handle can execute many programs (or the
    same program repeatedly) without state leaking between runs.
    """

    kind: str
    config: ProcessorConfig = field(default_factory=ProcessorConfig)
    #: stations per cluster; only meaningful for ``kind="hybrid"``
    cluster_size: int = 4

    def run(
        self,
        program,
        *,
        tracer: Tracer | None = None,
        memory: MemorySystem | None = None,
        predictor=None,
        initial_registers: list[int] | None = None,
        cycle_hook=None,
    ) -> ProcessorResult:
        """Execute *program* to completion and return the result.

        ``tracer`` attaches a telemetry sink for this run (counters land
        in ``ProcessorResult.stats``); ``cycle_hook`` attaches a
        per-cycle observer — typically an invariant checker from
        :mod:`repro.verify.invariants`; the remaining keywords override
        the factory defaults (ideal memory, perfect prediction, zeroed
        registers).
        """
        common: dict[str, Any] = dict(
            config=self.config,
            predictor=predictor,
            memory=memory,
            initial_registers=initial_registers,
            tracer=tracer,
            cycle_hook=cycle_hook,
        )
        # the three designs are one ring refilling 1, C or n stations at a time
        cluster_size = {"us1": 1, "us2": self.config.window_size}.get(
            self.kind, self.cluster_size
        )
        return make_hybrid(program, cluster_size, **common).run()


def build_processor(
    kind: str,
    config: ProcessorConfig | None = None,
    *,
    cluster_size: int = 4,
) -> Processor:
    """Build a reusable :class:`Processor` of the named design.

    *kind* is one of :data:`PROCESSOR_KINDS` (a few obvious aliases
    such as ``"ring"`` and ``"ultrascalar2"`` also work); unknown names
    raise :class:`ValueError` with a did-you-mean hint.
    """
    return Processor(
        kind=_normalize_kind(kind),
        config=config or ProcessorConfig(),
        cluster_size=cluster_size,
    )


def run(
    program,
    *,
    kind: str = "us1",
    config: ProcessorConfig | None = None,
    cluster_size: int = 4,
    tracer: Tracer | None = None,
    memory: MemorySystem | None = None,
    predictor=None,
    initial_registers: list[int] | None = None,
    cycle_hook=None,
) -> ProcessorResult:
    """One-shot convenience: build the processor and run *program*."""
    return build_processor(kind, config, cluster_size=cluster_size).run(
        program,
        tracer=tracer,
        memory=memory,
        predictor=predictor,
        initial_registers=initial_registers,
        cycle_hook=cycle_hook,
    )

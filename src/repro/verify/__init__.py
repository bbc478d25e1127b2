"""Differential testing and property fuzzing for the processor models.

The subsystem closes the loop the paper's equivalence arguments open:
every engine backend must agree with the sequential interpreter (the
architectural oracle) on all architecturally visible state, and the
scalable designs must agree with *each other* cycle-for-cycle in the
wrap-around-free regime.  See ``docs/verification.md``.

Modules:

* :mod:`repro.verify.oracle` — the golden reference run.
* :mod:`repro.verify.diff` — one program through every backend.
* :mod:`repro.verify.invariants` — per-cycle engine-internal checks.
* :mod:`repro.verify.fuzz` — random programs, shrinking, reproducers.
* :mod:`repro.verify.artifact` — the ``repro-verify/1`` JSON document.
* :mod:`repro.verify.cli` — ``python -m repro verify``.
"""

from repro.verify.artifact import VERIFY_SCHEMA, build_verify_artifact, validate_verify_artifact
from repro.verify.diff import (
    DESIGNS,
    DiffReport,
    Divergence,
    run_differential,
)
from repro.verify.fuzz import (
    FAILURE_SCHEMA,
    FuzzCase,
    corpus_cases,
    generate_case,
    load_reproducer,
    run_case,
    shard_report,
    shrink_case,
    validate_reproducer,
    write_reproducer,
)
from repro.verify.invariants import InvariantChecker, InvariantViolation, checked_run
from repro.verify.oracle import Commit, OracleResult, commit_stream, run_oracle

__all__ = [
    "VERIFY_SCHEMA",
    "build_verify_artifact",
    "validate_verify_artifact",
    "DESIGNS",
    "DiffReport",
    "Divergence",
    "run_differential",
    "FAILURE_SCHEMA",
    "FuzzCase",
    "corpus_cases",
    "generate_case",
    "load_reproducer",
    "run_case",
    "shard_report",
    "shrink_case",
    "validate_reproducer",
    "write_reproducer",
    "InvariantChecker",
    "InvariantViolation",
    "checked_run",
    "Commit",
    "OracleResult",
    "commit_stream",
    "run_oracle",
]

"""The ``repro-verify/1`` artifact: one verification run, machine-readable.

Built on :mod:`repro.util.artifact` like the runner's ``repro-runner/2``
artifact (stable field order, deterministic modulo wall time,
validation returning a problem list rather than raising).  Schema::

    {
      "schema": "repro-verify/1",
      "version": "<repro.__version__>",
      "designs": ["us1", ...],          # backends exercised
      "sizes": [4, 16],                 # window sizes (wrap-free is implicit)
      "budget": <int>,                  # per-shard instruction budget
      "minimize": <bool>,
      "totals": {
        "shards": <int>, "cases": <int>, "instructions": <int>,
        "failures": <int>, "errors": <int>, "wall_time_s": <float>
      },
      "shards": [
        {
          "seed": <int>, "status": "ok" | "failed" | "timeout" | "error",
          "cases": <int>, "instructions": <int>,
          "failures": [<repro-failure/1 object>, ...],
          "error": "<summary>" | null
        }, ...
      ]
    }

``status`` is ``"failed"`` when the shard ran but found divergences,
``"error"``/``"timeout"`` when the shard itself could not run (worker
crash/watchdog) — those carry the runner's error summary instead of
failure objects.
"""

from __future__ import annotations

from typing import Any

from repro.util.artifact import check_envelope, envelope, iter_entries

VERIFY_SCHEMA = "repro-verify/1"


def build_verify_artifact(
    shards: list[dict[str, Any]],
    *,
    designs: tuple[str, ...] | list[str],
    sizes: tuple[int, ...] | list[int],
    budget: int,
    minimize: bool,
    wall_time_s: float = 0.0,
) -> dict[str, Any]:
    """Assemble the artifact document for one ``verify`` invocation.

    *shards* entries are the per-shard objects described in the module
    docstring (built by the CLI from :class:`~repro.verify.fuzz.
    ShardOutcome` values and runner failures).
    """
    return envelope(
        VERIFY_SCHEMA,
        designs=list(designs),
        sizes=list(sizes),
        budget=budget,
        minimize=minimize,
        totals={
            "shards": len(shards),
            "cases": sum(s.get("cases", 0) for s in shards),
            "instructions": sum(s.get("instructions", 0) for s in shards),
            "failures": sum(len(s.get("failures", [])) for s in shards),
            "errors": sum(1 for s in shards if s.get("status") in ("error", "timeout")),
            "wall_time_s": round(wall_time_s, 6),
        },
        shards=shards,
    )


def validate_verify_artifact(document: Any) -> list[str]:
    """Return schema problems with a ``repro-verify/1`` artifact.

    An empty list means the document is well formed (the contract CI's
    verify-smoke job checks before trusting the run).
    """
    problems = check_envelope(
        document, VERIFY_SCHEMA, ("version", "designs", "sizes", "budget", "totals", "shards")
    )
    if not isinstance(document, dict):
        return problems
    totals = document.get("totals")
    if isinstance(totals, dict):
        for key in ("shards", "cases", "instructions", "failures", "errors"):
            if not isinstance(totals.get(key), int):
                problems.append(f"totals.{key} is not an int")
    elif totals is not None:
        problems.append("totals is not an object")
    for label, shard in iter_entries(
        document.get("shards"), "shards", ("seed", "status"), problems
    ):
        if shard.get("status") not in ("ok", "failed", "timeout", "error"):
            problems.append(
                f"{label}.status is {shard.get('status')!r}, expected ok/failed/timeout/error"
            )
        for where, failure in iter_entries(
            shard.get("failures", []), f"{label}.failures", (), problems
        ):
            if "program" not in failure or "divergences" not in failure:
                problems.append(f"{where} missing program/divergences")
    return problems

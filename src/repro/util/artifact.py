"""The one module that knows the JSON artifact format.

Every machine-readable document the package writes — ``repro-runner/2``
run artifacts, ``repro-trace/1`` Chrome traces, ``repro-verify/1`` and
``repro-bench/1`` artifacts, and ``repro-failure/1`` reproducers —
starts from :func:`envelope` (``schema`` first, then ``version``), is
written by :func:`write_json` and read back by :func:`read_json`.  Each
kind's module keeps only its ``build_*`` function and a validator built
from the helpers here; validators return a list of problems (empty when
the document is well formed) rather than raising.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

from repro._version import __version__

NOT_AN_OBJECT = "artifact is not a JSON object"


def envelope(schema: str, **fields: Any) -> dict[str, Any]:
    """A new document: ``schema``, ``version``, then *fields* in order."""
    return {"schema": schema, "version": __version__, **fields}


def write_json(path: str | Path, document: Any, *, sort_keys: bool = False) -> Path:
    """Write *document* as indented JSON to *path* (parent dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(document, indent=2, sort_keys=sort_keys)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def read_json(path: str | Path, validate: Callable[[Any], list[str]]) -> Any:
    """Read and validate a document; raises ``ValueError`` naming every problem.

    A missing or unreadable file raises ``OSError`` as usual.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    problems = validate(document)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return document


def check_envelope(document: Any, schema: str, keys: tuple[str, ...] = ()) -> list[str]:
    """Problems with *document*'s object type, schema tag and required *keys*."""
    if not isinstance(document, dict):
        return [NOT_AN_OBJECT]
    problems = []
    if document.get("schema") != schema:
        problems.append(f"schema is {document.get('schema')!r}, expected {schema!r}")
    problems.extend(f"missing top-level key {key!r}" for key in keys if key not in document)
    return problems


def iter_entries(
    entries: Any, where: str, keys: tuple[str, ...], problems: list[str]
) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``(label, entry)`` for each object in the list *entries*.

    Appends to *problems* when *entries* is not a list, for each entry
    that is not an object (skipped), and for each missing key.
    """
    if not isinstance(entries, list):
        problems.append(f"{where} is not a list")
        return
    for index, entry in enumerate(entries):
        label = f"{where}[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{label} is not an object")
            continue
        problems.extend(f"{label} missing key {key!r}" for key in keys if key not in entry)
        yield label, entry


def counter_problems(stats: Any, where: str) -> list[str]:
    """Telemetry counters must be ``None`` or map ``str`` to ``int``."""
    if stats is None or (
        isinstance(stats, dict)
        and all(isinstance(k, str) and isinstance(v, int) for k, v in stats.items())
    ):
        return []
    return [f"{where} is not a str->int mapping"]

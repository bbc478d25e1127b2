"""Library logging: one ``repro`` logger hierarchy, silent by default.

Library code logs through :func:`get_logger`; nothing is printed unless
the application configures a handler — the root ``repro`` logger gets a
:class:`logging.NullHandler`, per stdlib library convention, so
importing :mod:`repro` never writes to a user's stderr.

The CLI entry points call :func:`setup_cli_logging`, which attaches a
message-only stderr handler (so CLI output stays byte-identical to the
pre-logging code) at a level taken from the ``REPRO_LOG`` environment
variable (``DEBUG``/``INFO``/``WARNING``/``ERROR``/``CRITICAL``,
default ``WARNING``).  ``REPRO_LOG=DEBUG python -m repro all`` shows
retry and cache decisions that are normally silent.
"""

from __future__ import annotations

import logging
import os
import sys

ROOT_LOGGER = "repro"

#: the environment variable that sets the CLI log level
ENV_VAR = "REPRO_LOG"

logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


class _StderrHandler(logging.StreamHandler):
    """A stream handler that always writes to the *current* stderr.

    ``logging.StreamHandler`` captures ``sys.stderr`` at construction
    time; this variant looks it up per record, so output lands wherever
    stderr points now (pytest's capture, a redirected CLI, ...).
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:  # StreamHandler.setStream compatibility
        pass


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro`` logger, or a child (``get_logger("runner")``)."""
    if name is None or name == ROOT_LOGGER:
        return logging.getLogger(ROOT_LOGGER)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def level_from_env() -> int:
    """The log level ``REPRO_LOG`` names, or ``WARNING`` when unset/bad."""
    name = os.environ.get(ENV_VAR, "").strip().upper()
    level = logging.getLevelName(name) if name else None
    return level if isinstance(level, int) else logging.WARNING


def setup_cli_logging() -> None:
    """Attach the CLI's stderr handler (idempotent).

    The formatter is message-only: routed messages look exactly like
    the ``print(..., file=sys.stderr)`` calls they replaced.
    """
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(level_from_env())
    if not any(isinstance(h, _StderrHandler) for h in root.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)

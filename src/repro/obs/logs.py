"""Stdlib logging configuration for the repro library and CLI.

Library modules obtain loggers via :func:`get_logger` (children of the
``"repro"`` root logger) and log normally; nothing is printed unless the
embedding application configures handlers.  The CLI calls
:func:`configure_logging` from its global ``-v/-q/--log-level`` flags,
which attaches one stderr handler to the ``"repro"`` logger so library
warnings — e.g. an experiment falling back to shard scans when the
warehouse index cannot sync — surface uniformly instead of being silent.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, TextIO

__all__ = ["configure_logging", "get_logger"]

ROOT_LOGGER_NAME = "repro"

_HANDLER_MARK = "_repro_cli_handler"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The ``repro`` logger, or the ``repro.<name>`` child for a module."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + ".") or name == ROOT_LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def resolve_level(
    level: Optional[str] = None, verbosity: int = 0, quiet: bool = False
) -> int:
    """Map CLI flags to a logging level; an explicit ``--log-level`` wins."""
    if level:
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level: {level!r}")
        return resolved
    if quiet:
        return logging.ERROR
    if verbosity >= 2:
        return logging.DEBUG
    if verbosity == 1:
        return logging.INFO
    return logging.WARNING


def configure_logging(
    level: Optional[str] = None,
    verbosity: int = 0,
    quiet: bool = False,
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Point the ``repro`` logger at stderr at the requested level.

    Idempotent: repeated calls reconfigure the single CLI handler instead
    of stacking new ones, so tests (and repeated ``main()`` invocations)
    can call it freely.
    """
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    logger.setLevel(resolve_level(level, verbosity, quiet))
    handler = None
    for existing in logger.handlers:
        if getattr(existing, _HANDLER_MARK, False):
            handler = existing
            break
    if handler is None:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        setattr(handler, _HANDLER_MARK, True)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    elif stream is not None:
        # Not setStream(): that flushes the previous stream first, which may
        # already be closed (e.g. a captured stderr from an earlier run).
        handler.acquire()
        try:
            handler.stream = stream
        finally:
            handler.release()
    handler.setLevel(logging.NOTSET)
    logger.propagate = False
    return logger

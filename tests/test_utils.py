"""Tests for repro.utils (logging)."""

import logging

from repro.utils import get_logger
from repro.utils.logging import enable_console_logging


class TestLogging:
    def test_namespace_prefixed(self):
        logger = get_logger("mycomponent")
        assert logger.name == "repro.mycomponent"

    def test_existing_namespace_kept(self):
        logger = get_logger("repro.data")
        assert logger.name == "repro.data"

    def test_console_logging_idempotent(self):
        enable_console_logging()
        root = logging.getLogger("repro")
        count = len(root.handlers)
        enable_console_logging()
        assert len(root.handlers) == count

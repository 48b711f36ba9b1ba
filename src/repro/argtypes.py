"""Argument types shared by the command-line entry points.

A malformed or out-of-range value raises ``ArgumentTypeError`` (or the
converter's ``ValueError``), which argparse reports against the flag
with exit status 2 instead of a traceback.
"""

from __future__ import annotations

import argparse
from typing import Callable

__all__ = ["positive", "count", "fraction"]


def positive(convert: Callable[[str], float]) -> Callable[[str], float]:
    """Argument type: ``convert(text)``, refused unless above zero."""

    def parse(text: str) -> float:
        value = convert(text)  # argparse reports a ValueError as "invalid int value"
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{text!r} is not positive")
        return value

    parse.__name__ = convert.__name__
    return parse


def count(text: str) -> int:
    """Argument type: an int, refused if negative."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return int(text)


def fraction(text: str) -> float:
    """Argument type: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value

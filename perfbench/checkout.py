"""Locate the checkout this benchmark lives in and load redkit from it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def use_checkout_source() -> None:
    """Import redkit from ``<checkout>/src`` and nowhere else.

    Exits with an error when the sources are missing, so that a copy of the
    benchmark without the program fails instead of measuring another
    installation.
    """
    sys.path.insert(0, str(SRC))
    try:
        import redkit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import redkit from {SRC}: {exc}")
    loaded = Path(redkit.__file__).resolve().parent
    if loaded != SRC / "redkit":
        raise SystemExit(f"perfbench: redkit loaded from {loaded}, not from {SRC}")

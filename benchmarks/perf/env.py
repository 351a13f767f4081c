"""The ``env`` block of a BENCH file: where and on what a result was measured."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[2]


def _commit() -> str:
    """HEAD's hash, suffixed ``-dirty`` when tracked files have uncommitted edits."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=_ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(mode: str) -> dict:
    """Commit, CPU model and count, Python, numpy and the bench *mode*."""
    return {
        "commit": _commit(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mode": mode,
    }

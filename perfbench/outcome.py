"""Bookkeeping shared by the workloads: attempted/failed counts and peak RSS."""

from __future__ import annotations

import os


class Outcome:
    """Attempted/failed bookkeeping shared by both modes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, samples) -> None:
        self.attempted += len(samples)
        self.failed += sum(1 for s in samples if not s.ok)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)


def child_pids(pid: int) -> list[int]:
    """Processes whose parent is *pid*, read from ``/proc``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _vmhwm_kb(pid: int) -> int:
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids) -> float:
    """Peak RSS (VmHWM) summed over *pids*, in MiB."""
    return sum(_vmhwm_kb(pid) for pid in pids) / 1024.0

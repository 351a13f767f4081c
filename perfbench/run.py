"""One end-to-end benchmark of the GReaTER stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload table_http --seed 1 --seconds 32 --trace 0

Workloads: ``table_http`` and ``database_http`` (a ``repro.cli serve``
subprocess driven over HTTP) and ``fit_registry`` (``Registry.fit_or_load``
in-process).  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` the per-layer split from a run that
alternates traced and untraced segments.  Every output is checked; the
exit code is 1 when a check failed and 2 when the program cannot be
imported.  An environment block (machine, versions, settings) goes to
stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metric -> unit, as listed in BENCHMARK.json
END_TO_END = {
    "rows_per_s": "rows/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

WORKLOADS = ("table_http", "database_http", "fit_registry")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _import_program() -> str | None:
    """Import ``repro`` from this checkout's ``src``; an error message on failure."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        return "cannot import the program from {}: {}".format(ROOT / "src", error)
    location = Path(repro.__file__).resolve()
    if (ROOT / "src") not in location.parents:
        return "imported repro from {}, not from {}".format(location, ROOT / "src")
    return None


def _settings(workload: str) -> dict:
    from perfbench import fit_workload, http_workloads, inputs

    if workload == "fit_registry":
        return {"n_users": fit_workload.N_USERS, "model_seed": inputs.MODEL_SEED,
                "setup_launches": fit_workload.SETUP_LAUNCHES}
    spec = http_workloads.SPECS[workload]
    return {"path": spec.path, "n": spec.n, "block_size": spec.block_size,
            "model_seed": inputs.MODEL_SEED, "workers": http_workloads.WORKERS,
            "connections": http_workloads.CONNECTIONS,
            "setup_launches": http_workloads.SETUP_LAUNCHES,
            "min_requests": http_workloads.MIN_REQUESTS,
            "trace_pairs": http_workloads.TRACE_PAIRS}


def environment(args) -> dict:
    """Machine, versions and run settings, so a result can be traced to its box."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": _settings(args.workload),
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    problem = _import_program()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from perfbench import fit_workload, http_workloads, layers

    print(json.dumps({"environment": environment(args)}), file=sys.stderr)
    workdir = ROOT / ".perfbench_work" / "run-{}".format(os.getpid())
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    traced = bool(args.trace)
    try:
        if args.workload == "fit_registry":
            metrics, outcome = fit_workload.run(args.seconds, traced, workdir)
        else:
            metrics, outcome = http_workloads.run(http_workloads.SPECS[args.workload],
                                                  args.seed, args.seconds, traced,
                                                  ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.UNITS if traced else END_TO_END
    for note in outcome.notes:
        print("check: " + note, file=sys.stderr)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

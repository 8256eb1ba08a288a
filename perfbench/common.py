"""Shared pieces: checkout paths, the declared metrics, child processes,
statistics, run metadata, and the correctness references."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (ignored by git).
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
OBSERVED = STATE / "observed.json"
DEFAULT_SEED = 2019


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


def declared() -> dict:
    """``BENCHMARK.json``: the workloads and metrics, with their units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def units() -> dict[str, str]:
    spec = declared()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program's sources are missing: no {SRC / 'repro'}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_dir(tag: str) -> Path:
    path = STATE / "runs" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def python_child(script: str, *args: str, timeout: float = 170.0) -> dict:
    """Run ``perfbench/<script>`` to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{script} failed with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def subseed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench|{workload}|{seed}|{index}".encode()).hexdigest()
    return int(digest[:8], 16)


# -- statistics ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- metadata -----------------------------------------------------------------


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine and run facts recorded beside every result."""
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_rev": rev,
        "git_dirty": bool(status) if rev else None,
        "loadavg": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- correctness references ------------------------------------------------------


def _load(path: Path) -> dict:
    if path.is_file():
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    return {}


def _save(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class References:
    """Expected outputs, by ``workload/seed/key``.

    The recorded file (``reference.json``, kept with the benchmark)
    holds the default seed.  Any other seed is checked against what an
    earlier run in this checkout observed, so traced and untraced runs
    of one seed must agree.  ``record=True`` writes the recorded file.
    """

    def __init__(self, workload: str, seed: int, record: bool = False) -> None:
        self.prefix = f"{workload}/{seed}"
        self.record = record
        self.recorded = _load(REFERENCE)
        self.observed = _load(OBSERVED)
        self.mismatches: list[str] = []

    def check(self, key: str, value) -> bool:
        full = f"{self.prefix}/{key}"
        if self.record:
            self.recorded[full] = value
            return True
        expected = self.recorded.get(full, self.observed.get(full))
        if expected is None:
            self.observed[full] = value
            return True
        if expected != value:
            self.mismatches.append(f"{full}: expected {expected!r}, got {value!r}")
            return False
        return True

    def save(self) -> None:
        if self.record:
            _save(REFERENCE, self.recorded)
        else:
            fresh = _load(OBSERVED)
            fresh.update(self.observed)
            _save(OBSERVED, fresh)

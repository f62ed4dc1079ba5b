"""Locate the source checkout the benchmark measures.

The benchmark always measures the ``srv6sfc`` package under ``src/`` of
the checkout it sits in, never an installed copy, so that two commits
can be compared by running each checkout's own benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
# Scratch space for generated configs and span dumps; listed in .gitignore.
OUT_DIR = ROOT / ".perfbench-out"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/srv6sfc`` to measure."""


def require_src() -> None:
    """Put the checkout's ``src`` first on the import path.

    Raises MissingProgram when the package is absent, so the benchmark
    fails instead of measuring some other copy of the program.
    """
    if not (SRC / "srv6sfc" / "__init__.py").is_file():
        raise MissingProgram(f"no srv6sfc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import srv6sfc

    if Path(srv6sfc.__file__).resolve().parent != SRC / "srv6sfc":
        raise MissingProgram(f"srv6sfc was imported from {srv6sfc.__file__}, not {SRC}")


def git_head() -> str | None:
    """Commit id of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None

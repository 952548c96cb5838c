"""Shared set-up for the benchmark's own tests: import path and scratch dirs."""

import os
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))


SCRATCH = ROOT / ".bench_work" / ("test-%d" % os.getpid())


def scratch(name):
    """A fresh directory inside the checkout's work area."""
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass  # another run still works there

"""Shared set-up of the benchmark: paths, thread settings and the package import.

Every benchmark process imports the package from the `src/` directory of the
checkout that holds this file, never from an installed copy, and pins BLAS to
one thread before numpy loads.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SetupError(RuntimeError):
    """The checkout does not hold the package or the benchmark's references."""


def pin_threads():
    for key, value in THREAD_ENV.items():
        os.environ[key] = value


def child_env():
    """Environment for benchmark subprocesses: pinned threads, checkout on the path."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_package():
    """Import blowuplab from this checkout's src/ and refuse any other copy."""
    if not (SRC / "blowuplab" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import blowuplab

    origin = Path(blowuplab.__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"blowuplab was imported from {origin}, not from {SRC}")
    return blowuplab

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def cli_in_subprocess():
    """Run the CLI in a fresh interpreter with ``threads`` BLAS threads and
    return its stdout.  numpy reads OMP_NUM_THREADS and OPENBLAS_NUM_THREADS
    once, when it loads, so only a new process can vary them."""
    def run(argv, threads):
        env = {**os.environ, "OMP_NUM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "kforrelation.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout
    return run

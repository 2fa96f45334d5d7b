import os
import subprocess
import sys
from pathlib import Path

import pytest

from kforrelation import forrelation
from kforrelation.forrelation import components

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


@pytest.fixture(autouse=True)
def fresh_table_memo():
    """Each test starts with forrelation's table-total memo empty, so what it
    counts or patches never depends on the tests that ran before it."""
    forrelation._table_total.cache_clear()


def off_tables(qubits, k):
    """Whether Phi reads `qubits` qubits of a k-function instance (all n of
    them, or one component's) off the dense end tables rather than the
    runner: the sign table holds 6 qubits, and a total of k*qubits bits must
    fit float64's 53-bit significand.  Restated here, not read off
    forrelation._runs_dense, so the tests check that rule independently."""
    return qubits <= 6 and k * qubits <= 53


def evaluators(inst):
    """The evaluators Phi reads inst with: {"whole"} for the whole-register
    tables, else "table" or "runner" per component."""
    if off_tables(inst.n, inst.k):
        return {"whole"}
    return {"table" if off_tables(len(c), inst.k) else "runner" for c in components(inst)}

"""What importing and running the library loads, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcdl
from tcdl import solver

_SRC = str(Path(tcdl.__file__).resolve().parents[1])
_EXTENSIONS = ("scipy.optimize._highspy._core", "scipy.sparse.linalg._dsolve._superlu")


def _run(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _SRC}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout


def test_running_the_library_loads_only_two_scipy_extensions(tmp_path):
    # the CLI's import, one selftest seed and both solves on a 121-node tree
    # (SuperLU's path) leave scipy's packages, and the process pool, unloaded
    out = _run(f"""
import sys
import tcdl.cli
from tcdl import dual, harness, primal, utility
assert harness.selftest([1], {str(tmp_path)!r}) == {{1: True}}
model = harness.random_instance(1, 4, 3, lam=0.3, rho=0.2)
log = utility.make_utility("log")
dual.solve_dual(model, log, 1.0)
primal.solve_primal(model, log, dual.compute_x0(model) + 1.0)
print(*sorted(sys.modules), sep="\\n")
""")
    loaded = set(out.split())
    for package in ("scipy", "scipy.optimize", "scipy.sparse", "scipy.linalg",
                    "concurrent.futures"):
        assert package not in loaded
    scipy = {name for name in loaded if name.startswith("scipy.")}
    assert set(_EXTENSIONS) <= scipy
    assert all(name.startswith(_EXTENSIONS) for name in scipy)


@pytest.mark.parametrize("tcdl_first", [True, False], ids=["tcdl-first", "scipy-first"])
def test_scipy_imports_alongside_the_library_in_either_order(tcdl_first):
    # one copy of each extension, whichever side loads it first: a second
    # copy of the pybind11 HiGHS module would break scipy.optimize's import
    library = "from tcdl import solver"
    scipy = ("from scipy.optimize import linprog\n"
             "from scipy.sparse.linalg import splu")
    out = _run(f"""
import sys
import numpy as np
from scipy.sparse import csc_array
{library if tcdl_first else scipy}
{scipy if tcdl_first else library}
assert solver._highs is sys.modules["scipy.optimize._highspy._core"]
assert solver._superlu is sys.modules["scipy.sparse.linalg._dsolve._superlu"]
print(linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0]).fun)
print(splu(csc_array(np.diag([2.0, 4.0])), permc_spec="NATURAL").solve(np.ones(2)))
lp = solver.LinearProgram(c=np.array([1.0, 2.0]), A_ub=np.array([[-1.0, -1.0]]),
                          b_ub=np.array([-1.0]))
print(solver.solve_lp(lp).value)
""")
    assert out.split() == ["1.0", "[0.5", "0.25]", "1.0"]


def test_a_missing_extension_file_names_its_path():
    with pytest.raises(ImportError) as caught:
        solver._extension("scipy.sparse.linalg._dsolve._missing")
    path = caught.value.path
    assert os.path.basename(os.path.dirname(path)) == "_dsolve"
    assert os.path.basename(path).startswith("_missing.")
    assert path in str(caught.value) and not os.path.exists(path)
    assert "scipy.sparse.linalg._dsolve._missing" not in sys.modules

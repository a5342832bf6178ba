"""The two count kernels (pure Python / compiled) must be interchangeable."""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import twisted_hurwitz
from twisted_hurwitz import KERNEL_BACKEND
from twisted_hurwitz.factorizations import _alpha_lookup, _twisted_tables
from twisted_hurwitz import _slowcount

FASTCOUNT_C = Path(twisted_hurwitz.__file__).with_name("_fastcount.c")


def test_backend_is_one_of_the_two():
    assert KERNEL_BACKEND in ("python", "cython")


def _run_all_sigmas(kernel, d, g, connected):
    etas, eta_taus, alphas, sigmas = _twisted_tables(d)
    total = 0
    for sigma in sigmas:
        lookup = _alpha_lookup(sigma, alphas)
        total += kernel.count_for_sigma(
            sigma, etas, eta_taus, alphas, lookup, g - 1, connected
        )
    return total


@pytest.fixture(scope="module")
def fastcount(tmp_path_factory):
    """The compiled kernel: the built extension if there is one, else the
    committed C source compiled into a temporary directory."""
    try:
        from twisted_hurwitz import _fastcount

        return _fastcount
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("compiled extension not built and no C compiler to build it")
    target = tmp_path_factory.mktemp("fastcount") / (
        "_fastcount" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        [gcc, "-O2", "-shared", "-fPIC", "-I", include, str(FASTCOUNT_C), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("twisted_hurwitz._fastcount", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("connected", [True, False])
def test_fast_and_slow_kernels_agree(fastcount, d, g, connected):
    assert fastcount.BACKEND == "cython"
    slow = _run_all_sigmas(_slowcount, d, g, connected)
    fast = _run_all_sigmas(fastcount, d, g, connected)
    assert slow == fast


def test_env_flag_forces_python_backend():
    env = dict(os.environ, TH_NO_EXT="1")
    out = subprocess.run(
        [sys.executable, "-c", "import twisted_hurwitz; print(twisted_hurwitz.KERNEL_BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"


def test_zero_depth_counts_commuting_alphas():
    # g = 1: no transposition slots at all; the kernel must still work
    etas, eta_taus, alphas, sigmas = _twisted_tables(2)
    total = 0
    for sigma in sigmas:
        lookup = _alpha_lookup(sigma, alphas)
        total += _slowcount.count_for_sigma(
            sigma, etas, eta_taus, alphas, lookup, 0, False
        )
    # oracle: sum over the three twist-admissible sigmas of their
    # hyperoctahedral centralizer orders (8 + 4 + 4)
    assert total == 16

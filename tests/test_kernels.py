"""The per-sigma count kernel: the orbit sum and the sum over every sigma agree."""

import pytest

from twisted_hurwitz import KERNEL_BACKEND, count_twisted
from twisted_hurwitz.factorizations import _alpha_lookup, _twisted_tables, count_for_sigma


def test_backend_is_python():
    assert KERNEL_BACKEND == "python"


def _run_all_sigmas(d, g, connected):
    etas, eta_taus, alphas, sigmas = _twisted_tables(d)
    total = 0
    for sigma in sigmas:
        lookup = _alpha_lookup(sigma, alphas)
        total += count_for_sigma(sigma, etas, eta_taus, alphas, lookup, g - 1, connected)
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("connected", [True, False])
def test_fast_and_slow_kernels_agree(d, g, connected):
    # fast: one kernel call per B_d-orbit, weighted by orbit size;
    # slow: one kernel call for every sigma in B~_d
    fast = count_twisted(d, g, connected=connected).tuple_count
    slow = _run_all_sigmas(d, g, connected)
    assert fast == slow


def test_zero_depth_counts_commuting_alphas():
    # g = 1: no transposition slots at all; the kernel must still work
    etas, eta_taus, alphas, sigmas = _twisted_tables(2)
    total = 0
    for sigma in sigmas:
        lookup = _alpha_lookup(sigma, alphas)
        total += count_for_sigma(sigma, etas, eta_taus, alphas, lookup, 0, False)
    # oracle: sum over the three twist-admissible sigmas of their
    # hyperoctahedral centralizer orders (8 + 4 + 4)
    assert total == 16

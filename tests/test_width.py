"""Urn-model analytics: frozen goldens first, then cross-route and property checks.

Golden values below were computed independently before the implementation:
small-instance pmfs by enumerating ordered drawing sequences by hand, moments
from those pmfs, and trajectory/fixed-point values by iterating the mean
recurrence with exact rationals by hand.
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meg.width import (
    Pmf,
    brute_force_pmf,
    expected_removed,
    fixed_point,
    hypergeom,
    mean_trajectory,
    monte_carlo_trajectory,
    pmf_removed,
    retention_probability,
    rounds_until_convergence,
    simulate_urn_round,
    transition_probability,
    variance_removed,
    variance_removed_recursive,
)
from random import Random

SETTINGS = {"max_examples": 60, "deadline": None}

# (u, d, k) -> pmf of removed count, enumerated by hand.
GOLDEN_PMFS = {
    (4, 2, 1): {2: Fraction(1)},
    (4, 2, 2): {2: Fraction(1, 6), 3: Fraction(2, 3), 4: Fraction(1, 6)},
    (3, 2, 2): {2: Fraction(1, 3), 3: Fraction(2, 3)},
}


# -- frozen goldens --------------------------------------------------------------


def test_retention_probability_exact():
    assert retention_probability(6, 2, exact=True) == Fraction(2, 3)
    assert retention_probability(4, 2, exact=True) == Fraction(1, 2)
    assert retention_probability(10, 5) == pytest.approx(0.5)


def test_brute_force_pmf_golden():
    for (u, d, k), want in GOLDEN_PMFS.items():
        assert brute_force_pmf(u, d, k).probs == want


def test_pmf_recursion_matches_goldens():
    for (u, d, k), want in GOLDEN_PMFS.items():
        assert pmf_removed(u, d, k, exact=True).probs == want


def test_moments_4_2_2():
    pmf = pmf_removed(4, 2, 2, exact=True)
    assert pmf.mean() == 3
    assert pmf.variance() == Fraction(1, 3)
    assert expected_removed(4, 2, 2, exact=True) == 3
    assert variance_removed(4, 2, 2, exact=True) == Fraction(1, 3)


def test_expected_removed_exact_values():
    assert expected_removed(4, 2, 1, exact=True) == 2
    assert expected_removed(6, 2, 3, exact=True) == Fraction(38, 9)


def test_variance_recursion_is_not_memoryless():
    # The k=3 case distinguishes a correct second-moment recursion from one
    # that forgets V(R_{k-1}); the latter gives 1/4 here instead of 11/36.
    assert variance_removed(4, 2, 3, exact=True) == Fraction(11, 36)
    assert variance_removed_recursive(4, 2, 3, exact=True) == Fraction(11, 36)


def test_variance_closed_vs_recursive_grid():
    for u, d, k in [(4, 2, 2), (6, 2, 3), (9, 3, 4), (20, 5, 6), (50, 7, 9), (100, 3, 12)]:
        closed = variance_removed(u, d, k)
        rec = variance_removed_recursive(u, d, k)
        assert abs(closed - rec) <= 1e-12 * max(1.0, abs(closed))


def test_variance_k1_is_zero():
    assert variance_removed(9, 3, 1, exact=True) == 0
    assert variance_removed_recursive(9, 3, 1) == 0


def test_hypergeom_golden():
    pmf, mean, var = hypergeom(2, 2, 2, exact=True)
    assert pmf.probs == {0: Fraction(1, 6), 1: Fraction(2, 3), 2: Fraction(1, 6)}
    assert mean == 1
    assert var == Fraction(1, 3)


@pytest.mark.parametrize("exact", [False, True])
def test_hypergeom_empty_urn_is_a_point_mass_at_zero(exact):
    pmf, mean, var = hypergeom(0, 0, 0, exact=exact)
    assert pmf.probs == {0: 1}
    assert mean == 0 and var == 0
    assert type(mean) is (Fraction if exact else float)


def test_saturation_limit():
    assert abs(expected_removed(10, 5, 40) - 10) < 1e-6
    assert variance_removed(10, 5, 40) < 1e-6


def test_mean_trajectory_one_round_golden():
    rows = mean_trajectory(6, 2, 3, 1)
    assert rows[0].round == 0 and rows[0].mean_width == 6
    assert rows[1].mean_width == pytest.approx(43 / 9, abs=1e-12)


def test_fixed_point_goldens():
    assert fixed_point(5, 10) == 11
    assert fixed_point(5, 15) == 16
    assert fixed_point(5, 20) == 21
    # d >= k: a single drawing already removes >= k in expectation.
    assert fixed_point(10, 3) == 11


def test_fixed_point_is_a_threshold():
    for d, k in [(5, 10), (5, 15), (2, 3), (3, 7)]:
        fp = fixed_point(d, k)
        assert expected_removed(fp, d, k) >= k
        if fp - 1 > d:
            assert expected_removed(fp - 1, d, k) < k


def test_rounds_until_convergence_goldens():
    assert rounds_until_convergence(3, 2, 3) == 0
    assert rounds_until_convergence(30, 2, 3) == 12


def test_rounds_non_increasing_in_d():
    vals = [rounds_until_convergence(1000, d, 10) for d in range(2, 11)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    drops = [a - b for a, b in zip(vals, vals[1:])]
    assert drops[0] == max(drops)


# -- cross-route equivalences ------------------------------------------------------


def test_pmf_matches_brute_force_small_grid():
    for u in range(3, 7):
        for d in (2, 3):
            if d >= u:
                continue
            for k in (1, 2, 3):
                assert (
                    pmf_removed(u, d, k, exact=True).probs == brute_force_pmf(u, d, k).probs
                ), (u, d, k)


def test_pmf_moments_match_closed_forms():
    for u, d, k in [(5, 2, 3), (7, 3, 2), (10, 4, 3), (12, 2, 5)]:
        pmf = pmf_removed(u, d, k, exact=True)
        assert pmf.mean() == expected_removed(u, d, k, exact=True)
        assert pmf.variance() == variance_removed(u, d, k, exact=True)


def test_transition_probability_exact_row():
    # From width 4 with d=2, k=2: next width j = 4 + 2 - removed.
    assert transition_probability(4, 4, 2, 2, exact=True) == Fraction(1, 6)
    assert transition_probability(4, 3, 2, 2, exact=True) == Fraction(2, 3)
    assert transition_probability(4, 2, 2, 2, exact=True) == Fraction(1, 6)
    assert transition_probability(4, 5, 2, 2, exact=True) == 0


@given(
    u=st.integers(min_value=4, max_value=12),
    d=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=4),
)
@settings(**SETTINGS)
def test_transition_rows_are_stochastic(u, d, k):
    if d >= u:
        return
    total = sum(
        transition_probability(u, j, d, k, exact=True) for j in range(0, u + k + 1)
    )
    assert total == 1


@given(
    u=st.integers(min_value=3, max_value=25),
    d=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=6),
)
@settings(**SETTINGS)
def test_pmf_support_bounds(u, d, k):
    if d >= u:
        return
    pmf = pmf_removed(u, d, k, exact=True)
    assert pmf.total() == 1
    lo, hi = min(pmf.support()), max(pmf.support())
    assert lo >= d
    assert hi <= min(u, k * d)


@given(
    u=st.integers(min_value=4, max_value=40),
    d=st.integers(min_value=2, max_value=5),
    k=st.integers(min_value=1, max_value=8),
)
@settings(**SETTINGS)
def test_expected_removed_monotone(u, d, k):
    if d >= u:
        return
    e = expected_removed(u, d, k, exact=True)
    assert e <= min(u, k * d)
    assert expected_removed(u, d, k + 1, exact=True) > e
    e_up = expected_removed(u + 1, d, k, exact=True)
    # At k=1 every urn loses exactly d, so growth in u starts at k=2.
    assert e_up > e if k >= 2 else e_up == e


@given(
    u=st.integers(min_value=4, max_value=30),
    d=st.integers(min_value=2, max_value=5),
    k=st.integers(min_value=2, max_value=6),
)
@settings(**SETTINGS)
def test_variance_non_negative(u, d, k):
    if d >= u:
        return
    assert variance_removed(u, d, k, exact=True) >= 0


# -- trajectory and simulation ------------------------------------------------------


def test_trajectory_decreasing_above_fixed_point():
    for d, k in [(5, 10), (2, 3)]:
        fp = fixed_point(d, k)
        rows = mean_trajectory(3 * k, d, k, 60)
        for a, b in zip(rows, rows[1:]):
            if a.mean_width > fp:
                assert b.mean_width < a.mean_width


def test_low_states_jump_to_at_least_k():
    # Take-all draws: starting below k, one round lands at k or above.
    for u0 in (1, 2, 4):
        rows = mean_trajectory(u0, 5, 6, 1)
        assert rows[1].mean_width >= 6


def test_simulate_urn_round_trivial_cases():
    assert simulate_urn_round(2, 5, 1, Random(0)) == 2
    for s in range(10):
        assert simulate_urn_round(100, 5, 1, Random(s)) == 5


@given(
    u=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(**SETTINGS)
def test_simulate_urn_round_bounds(u, d, k, seed):
    r = simulate_urn_round(u, d, k, Random(seed))
    assert min(d, u) <= r <= min(u, k * d)


def test_monte_carlo_trivial_and_reproducible():
    rows = monte_carlo_trajectory(17, 2, 3, rounds=0, trials=1, seed=0)
    assert len(rows) == 1 and rows[0].mean_width == 17
    a = monte_carlo_trajectory(50, 3, 5, rounds=4, trials=64, seed=9)
    b = monte_carlo_trajectory(50, 3, 5, rounds=4, trials=64, seed=9)
    assert a == b
    c = monte_carlo_trajectory(50, 3, 5, rounds=4, trials=64, seed=10)
    assert a != c


def test_monte_carlo_tracks_mean_field():
    rows = monte_carlo_trajectory(200, 5, 10, rounds=5, trials=400, seed=3)
    analytic = mean_trajectory(200, 5, 10, 5)
    for sim, exact in zip(rows, analytic):
        assert sim.lo <= exact.mean_width <= sim.hi


# -- domain errors -------------------------------------------------------------------


def test_domain_rejections():
    with pytest.raises(ValueError):
        retention_probability(4, 4)
    with pytest.raises(ValueError):
        expected_removed(4, 5, 2)
    with pytest.raises(ValueError):
        expected_removed(4, 1, 2)
    with pytest.raises(ValueError):
        pmf_removed(3, 3, 1)
    with pytest.raises(ValueError):
        brute_force_pmf(60, 20, 10)  # enumeration guard


def test_pmf_container():
    pmf = Pmf({2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert pmf[2] == Fraction(1, 2)
    assert pmf[99] == 0
    assert pmf.support() == [2, 3]


# -- pinned outputs and sampling law -------------------------------------------------


@given(
    u=st.integers(min_value=3, max_value=30),
    d=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=8),
)
@settings(**SETTINGS)
def test_pmf_float_is_the_rounded_exact_pmf(u, d, k):
    if d >= u:
        return
    approx = pmf_removed(u, d, k).probs
    exact = pmf_removed(u, d, k, exact=True).probs
    assert approx == {j: float(q) for j, q in exact.items()}
    assert list(approx) == list(exact)


def test_pmf_float_output_is_pinned():
    # SHA-256 of the (150, 8, 40) float pmf as computed with Fraction arithmetic.
    probs = repr(sorted(pmf_removed(150, 8, 40).probs.items())).encode()
    assert (
        hashlib.sha256(probs).hexdigest()
        == "8954f79b18b15ee7f782dc94ab1238ac37a6a021c7d3f36b053252c613b51d7b"
    )


def sha256_of_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_simulate_urn_round_sequence_is_pinned():
    # One rng through 96 rounds, 42 of them with u <= d; the trailing draw
    # also pins how many uniforms the sequence consumed.
    rng = Random("urn-pin")
    cases = [
        (u, d, k) for u in (1, 2, 3, 5, 6, 9, 40, 150) for d in (2, 3, 5, 8) for k in (1, 3, 10)
    ]
    removed = [simulate_urn_round(u, d, k, rng) for u, d, k in cases]
    assert (
        sha256_of_repr((removed, rng.random()))
        == "9db65057ab85da42caa510c17d5f80db49addcc091a3625efd140aa771644c96"
    )


def urn_round_in_int_arithmetic(u, d, k, rng):
    """The sampler in int arithmetic, counting hits per drawing: the reference."""
    take = min(d, u)
    reds = u
    for _ in range(k):
        hits = 0
        for i in range(take):
            if rng.random() * (u - i) < reds - hits:
                hits += 1
        reds -= hits
    return u - reds


@given(
    u=st.integers(min_value=1, max_value=10**6),
    d=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(**SETTINGS)
def test_simulate_urn_round_matches_the_int_reference(u, d, k, seed):
    ours, ref = Random(seed), Random(seed)
    for _ in range(3):
        assert simulate_urn_round(u, d, k, ours) == urn_round_in_int_arithmetic(u, d, k, ref)
    assert ours.random() == ref.random()


def test_monte_carlo_rows_are_pinned():
    rows = monte_carlo_trajectory(30, 5, 10, 40, 100, 1)
    assert (
        sha256_of_repr([(r.round, r.mean_width, r.lo, r.hi) for r in rows])
        == "0bc1d03117547cc665f8668ddaa06b64740a90efdf589bbfc989b04a6eaa9f69"
    )


@pytest.mark.parametrize("u, d, k", [(10, 5, 3), (7, 3, 4), (6, 2, 3)])
def test_simulate_urn_round_follows_the_exact_pmf(u, d, k):
    trials = 20_000
    rng = Random(f"urn-law:{u}:{d}:{k}")
    counts: dict[int, int] = {}
    for _ in range(trials):
        r = simulate_urn_round(u, d, k, rng)
        counts[r] = counts.get(r, 0) + 1
    pmf = pmf_removed(u, d, k, exact=True)
    assert set(counts) <= set(pmf.support())
    for j in pmf.support():
        p = float(pmf[j])
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(j, 0) / trials - p) <= 4 * se, (j, counts.get(j, 0), p)


def test_simulate_urn_round_takes_all_when_u_at_most_d():
    for u, d in [(1, 2), (3, 5), (5, 5)]:
        for s in range(5):
            assert simulate_urn_round(u, d, 4, Random(s)) == u

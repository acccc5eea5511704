"""Width dynamics of the event DAG under concurrent appends.

Models one synchronized round as an urn experiment: the urn holds u balls,
one per current forward extremity, all red.  Each of k writers draws d balls
without replacement (the parents of its new event) and every drawn ball is
recolored black (that extremity gained a child).  Balls go back between
drawings.  The number of reds removed after k drawings, R_{d,k}(u), is the
number of extremities eliminated in the round; the round then adds k fresh
extremities, so the width chain steps as U_{n+1} = U_n + k - R_{d,k}(U_n).

Everything here is closed-form or exact combinatorics; the only sampling is
in `simulate_urn_round` and `monte_carlo_trajectory`, which exist to
cross-check the analytics and the full replica simulation.  Functions accept
`exact=True` to compute in rational arithmetic; the default is float.  The
removal pmf is computed on integer numerators over one common denominator
and divided once at the end, so its float and exact outputs are the same
numbers, the float one correctly rounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Union

Number = Union[Fraction, float]

BRUTE_FORCE_LIMIT = 10**6
_SCAN_CAP = 10**7


def _check_domain(u: int, d: int, k: int | None = None) -> None:
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if d >= u:
        raise ValueError(f"need d < u, got d={d} u={u}")
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def retention_probability(u: int, d: int, exact: bool = False) -> Number:
    """Chance a given red ball survives one drawing of d from u: p = (u - d) / u."""
    _check_domain(u, d)
    p = Fraction(u - d, u)
    return p if exact else float(p)


def expected_removed(u: int, d: int, k: int, exact: bool = False) -> Number:
    """E(R_{d,k}(u)) = d * (1 - p^k) / (1 - p) with p = (u - d) / u.

    Equivalently d * sum_{j<k} p^j: the first drawing removes d reds and each
    later drawing removes d scaled by the chance its victims were still red.
    Strictly increasing in both u and k on the valid domain.
    """
    _check_domain(u, d, k)
    p = Fraction(u - d, u)
    val = d * sum(p**j for j in range(k))
    return val if exact else float(val)


def _variance_constants(u: Number, d: int) -> tuple[Number, Number, Number]:
    """(p, v, w) at possibly real-valued u > d.

    p is the single-drawing retention probability, v and w the quadratic
    coefficients that drive the second-moment recursion:
        v = d (u - d) / (u^2 (u - 1))
        w = (u - d)(u - d - 1) / (u (u - 1))
    """
    p = (u - d) / u
    v = d * (u - d) / (u * u * (u - 1))
    w = (u - d) * (u - d - 1) / (u * (u - 1))
    return p, v, w


def _geom_sum(x: Number, m: int) -> Number:
    """sum_{j=0}^{m-1} x^j, safe at x == 1."""
    total = x * 0  # zero of the right numeric type
    power = total + 1
    for _ in range(m):
        total += power
        power *= x
    return total


def variance_removed(u: int, d: int, k: int, exact: bool = False) -> Number:
    """Closed form for V(R_{d,k}(u)).

    With p, v, w as in `_variance_constants`:

        V = v*u*d/(1-p) * [ G(w) - p^(k-1) G(w/p) ]
          - v*d^2/(1-p)^2 * [ G(w) - 2 p^(k-1) G(w/p) + p^(2(k-1)) G(w/p^2) ]

    where G(x) = sum_{j=0}^{k-2} x^j.  All denominators are nonzero whenever
    2 <= d < u: 1-w, 1-w/p and 1-w/p^2 reduce to positive multiples of d.
    V(R_{d,1}) = 0 since a single drawing removes exactly d reds.
    """
    _check_domain(u, d, k)
    uu: Number = Fraction(u) if exact else float(u)
    val = _variance_closed_form(uu, d, k)
    return val if exact else float(val)


def _variance_closed_form(u: Number, d: int, k: int) -> Number:
    if k == 1:
        return u * 0
    p, v, w = _variance_constants(u, d)
    g_w = _geom_sum(w, k - 1)
    g_wp = _geom_sum(w / p, k - 1)
    g_wp2 = _geom_sum(w / (p * p), k - 1)
    pk1 = p ** (k - 1)
    term1 = (v * u * d / (1 - p)) * (g_w - pk1 * g_wp)
    term2 = (v * d * d / ((1 - p) * (1 - p))) * (g_w - 2 * pk1 * g_wp + pk1 * pk1 * g_wp2)
    return term1 - term2


def variance_removed_recursive(u: int, d: int, k: int, exact: bool = False) -> Number:
    """V(R_{d,k}(u)) by iterating the law-of-total-variance recursion.

    Conditioning round k on R_{k-1} = r gives a hypergeometric drawing with
    u - r reds, whence

        V(R_k) = p^2 V(R_{k-1}) + c ( u E(R_{k-1}) - V(R_{k-1}) - E(R_{k-1})^2 )

    with c = (d/u^2)(1 - (d-1)/(u-1)) and V(R_1) = 0.  Collecting the
    V(R_{k-1}) terms shows the coefficient is p^2 - c = w, so this agrees
    with the closed form; it exists as an independent route for testing.
    """
    _check_domain(u, d, k)
    uu = Fraction(u) if exact else float(u)
    p = (uu - d) / uu
    c = (d / (uu * uu)) * ((uu - d) / (uu - 1))
    e = uu * 0 + d  # E(R_1) = d
    var = uu * 0
    for _ in range(k - 1):
        var = p * p * var + c * (uu * e - var - e * e)
        e = d + p * e
    return var if exact else float(var)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over removal counts."""

    probs: dict[int, Number]

    def __getitem__(self, j: int) -> Number:
        return self.probs.get(j, 0)

    def support(self) -> list[int]:
        return sorted(j for j, p in self.probs.items() if p != 0)

    def total(self) -> Number:
        return sum(self.probs.values())

    def mean(self) -> Number:
        return sum(j * p for j, p in self.probs.items())

    def variance(self) -> Number:
        m = self.mean()
        return sum((j - m) * (j - m) * p for j, p in self.probs.items())


def hypergeom(m: int, b: int, w: int, exact: bool = False) -> tuple[Pmf, Number, Number]:
    """Draw m from b black and w white balls; X counts black draws.

    Returns (pmf, mean, variance): the point mass at 0 for an empty urn, else
        P(X = j) = C(b, j) C(w, m - j) / C(b + w, m),
        E(X) = m b / (b + w),
        V(X) = m (b/(b+w)) (1 - b/(b+w)) (1 - (m-1)/(b+w-1)).
    """
    if m < 0 or b < 0 or w < 0:
        raise ValueError("hypergeometric parameters must be non-negative")
    if m > b + w:
        raise ValueError(f"cannot draw {m} from {b + w} balls")
    denom = math.comb(b + w, m)
    probs: dict[int, Number] = {}
    for j in range(max(0, m - w), min(b, m) + 1):
        q = Fraction(math.comb(b, j) * math.comb(w, m - j), denom)
        probs[j] = q if exact else float(q)
    share = Fraction(b, b + w) if b + w else Fraction(0)
    mean = m * share
    if b + w > 1:
        var = m * share * (1 - share) * (1 - Fraction(m - 1, b + w - 1))
    else:
        var = Fraction(0)
    if exact:
        return Pmf(probs), mean, var
    return Pmf(probs), float(mean), float(var)


def pmf_removed(u: int, d: int, k: int, exact: bool = False) -> Pmf:
    """Distribution of R_{d,k}(u) by recursion over drawings.

    Conditioned on j - l reds already removed, the k-th drawing removes l new
    reds with probability C(u-(j-l), l) C(j-l, d-l) / C(u, d), so

        P(R_k = j) = sum_{l=0}^{d} C(u-(j-l), l) C(j-l, d-l) / C(u, d)
                       * P(R_{k-1} = j - l)

    with base case P(R_1 = d) = 1.  Support lies in [d, min(u, k d)].  The
    recursion runs on integer numerators over C(u, d)^(k-1), and each
    probability is one division at the end: a Fraction when `exact`, else
    the correctly rounded float of the same ratio.  The kernel row of a
    removed count i, its nonzero (i + l, C(u-i, l) C(i, d-l)) pairs, is built
    once per call, the first time a drawing reaches i.  Every reachable i is
    at least d, so exactly the l up to min(d, u - i) give nonzero weights.
    """
    _check_domain(u, d, k)
    comb = math.comb
    rows: dict[int, list[tuple[int, int]]] = {}
    cur: dict[int, int] = {d: 1}
    for _ in range(k - 1):
        nxt: dict[int, int] = {}
        for prev_j, prev_n in cur.items():
            row = rows.get(prev_j)
            if row is None:
                row = rows[prev_j] = [
                    (prev_j + l, comb(u - prev_j, l) * comb(prev_j, d - l))
                    for l in range(min(d, u - prev_j) + 1)
                ]
            for j, weight in row:
                nxt[j] = nxt.get(j, 0) + weight * prev_n
        cur = nxt
    scale = math.comb(u, d) ** (k - 1)
    probs: dict[int, Number] = {
        j: (Fraction(n, scale) if exact else n / scale) for j, n in sorted(cur.items()) if n
    }
    return Pmf(probs)


def brute_force_pmf(u: int, d: int, k: int) -> Pmf:
    """Exact oracle: enumerate every ordered sequence of k drawings.

    Each drawing is a uniform d-subset of the u balls (recoloring never
    removes balls), so a sequence has probability C(u, d)^(-k) and removes
    |union of its subsets| reds.  Exponential in k; guarded at C(u,d)^k <= 1e6.
    """
    _check_domain(u, d, k)
    per = math.comb(u, d)
    total = per**k
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration size {total} exceeds {BRUTE_FORCE_LIMIT}")
    subsets = [frozenset(c) for c in itertools.combinations(range(u), d)]
    counts: dict[int, int] = {}
    for seq in itertools.product(subsets, repeat=k):
        removed = len(frozenset().union(*seq))
        counts[removed] = counts.get(removed, 0) + 1
    return Pmf({j: Fraction(n, total) for j, n in sorted(counts.items())})


def transition_probability(i: int, j: int, d: int, k: int, exact: bool = False) -> Number:
    """Width chain step P(U_{n+1} = j | U_n = i) = P(R_{d,k}(i) = i + k - j)."""
    pmf = pmf_removed(i, d, k, exact=exact)
    r = i + k - j
    val = pmf[r]
    if exact:
        return val if isinstance(val, Fraction) else Fraction(val)
    return float(val)


# -- mean-field trajectory ---------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRow:
    """One round of the expected width iteration."""

    round: int
    mean_width: float
    stddev_removal: float


def _expected_removed_real(u: float, d: int, k: int) -> float:
    """Closed-form mean at real-valued u, extended by the take-all rule.

    At u <= d a drawing grabs every ball, so all reds vanish in the first
    drawing and the round removes exactly u.
    """
    if u <= d:
        return u
    p = (u - d) / u
    return d * (1 - p**k) / (1 - p)


def _stddev_removed_real(u: float, d: int, k: int) -> float:
    if u <= d:
        return 0.0
    return math.sqrt(max(0.0, _variance_closed_form(u, d, k)))


def mean_trajectory(u0: float, d: int, k: int, rounds: int) -> list[TrajectoryRow]:
    """Iterate E(U_{n+1}) = E(U_n) + k - E(R_{d,k}(E(U_n))) for `rounds` rounds.

    Mean-field approximation: the expectation is pushed through the nonlinear
    removal law, which is exact per round but ignores spread across rounds.
    Row n carries the width entering round n+1's drawing and the standard
    deviation of the removal happening at that width.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if k < 1 or rounds < 0 or u0 <= 0:
        raise ValueError("need k >= 1, rounds >= 0, u0 > 0")
    rows = [TrajectoryRow(0, float(u0), _stddev_removed_real(float(u0), d, k))]
    u = float(u0)
    for n in range(1, rounds + 1):
        u = u + k - _expected_removed_real(u, d, k)
        rows.append(TrajectoryRow(n, u, _stddev_removed_real(u, d, k)))
    return rows


def fixed_point(d: int, k: int) -> int:
    """Smallest integer u > d with expected_removed(u, d, k) >= k.

    At and above this width a round removes at least as many extremities as
    it adds, so expected width stops growing.  Defined by direct scan; no
    relation between k and d is assumed.
    """
    if d < 2 or k < 1:
        raise ValueError("need d >= 2 and k >= 1")
    u = d + 1
    while u < d + _SCAN_CAP:
        if _expected_removed_real(float(u), d, k) >= k:
            return u
        u += 1
    raise ArithmeticError("no fixed point found within scan bound")


def rounds_until_convergence(u0: float, d: int, k: int) -> int:
    """Rounds until the expected per-round decrease first falls below 1.

    Iterates the mean trajectory from u0 and returns the smallest n with
    E(U_n) - E(U_{n+1}) < 1.  Wide starts shed close to k(d-1) width per
    round, so this grows roughly linearly in u0 and shrinks with d and k.
    """
    if d < 2 or k < 1 or u0 <= 0:
        raise ValueError("need d >= 2, k >= 1, u0 > 0")
    u = float(u0)
    for n in range(_SCAN_CAP):
        nxt = u + k - _expected_removed_real(u, d, k)
        if u - nxt < 1:
            return n
        u = nxt
    raise ArithmeticError("decrease never fell below 1 within scan bound")


# -- sampling ----------------------------------------------------------------


def simulate_urn_round(u: int, d: int, k: int, rng: Random) -> int:
    """Sample R for one round: k sequential drawings of min(d, u) balls.

    Tracks only the red count.  Each drawing takes its balls one at a time
    without replacement, so the balls left to draw from run down the
    denominators u, u - 1, ..., u - min(d, u) + 1.  With m balls left, of
    them `reds` red, the next ball is red with probability reds / m, decided
    by one `rng.random()`; a red draw lowers `reds` at once.  The reds a
    drawing removes thus follow the hypergeometric law, up to the 2^-53
    resolution of a float uniform.
    """
    if u < 1 or d < 1 or k < 1:
        raise ValueError("need u, d, k >= 1")
    random = rng.random
    # Whole numbers held as floats: the product and the comparison are those
    # of int operands, exactly, but stay on the interpreter's float fast path.
    denominators = [float(m) for m in range(u, u - min(d, u), -1)]
    reds = float(u)
    for _ in range(k):
        for m in denominators:
            if random() * m < reds:
                reds -= 1.0
    return u - int(reds)


@dataclass(frozen=True)
class MonteCarloRow:
    """Per-round summary over independent trials."""

    round: int
    mean_width: float
    lo: float
    hi: float


def monte_carlo_trajectory(
    u0: int, d: int, k: int, rounds: int, trials: int, seed: int
) -> list[MonteCarloRow]:
    """Simulate `trials` independent width trajectories and summarize per round.

    Each trial runs on its own substream keyed by (seed, trial index), so
    results are reproducible and independent of execution order.  The band is
    the empirical 2.5 to 97.5 percentile range of the width across trials.
    """
    if trials < 1 or rounds < 0 or u0 < 1:
        raise ValueError("need trials >= 1, rounds >= 0, u0 >= 1")
    widths = [[0.0] * trials for _ in range(rounds + 1)]
    for t in range(trials):
        rng = Random(f"{seed}:{t}")
        u = u0
        widths[0][t] = float(u)
        for n in range(1, rounds + 1):
            u = u + k - simulate_urn_round(u, d, k, rng)
            widths[n][t] = float(u)
    rows = []
    for n in range(rounds + 1):
        vals = sorted(widths[n])
        lo = vals[int(0.025 * (trials - 1))]
        hi = vals[min(trials - 1, math.ceil(0.975 * (trials - 1)))]
        rows.append(MonteCarloRow(n, sum(vals) / trials, lo, hi))
    return rows

"""Epsilon lower bounds from attack results and exposure statistics.

Any eps-DP training procedure caps every membership inference attack at
TPR/FPR <= exp(eps), so an observed operating point certifies

    eps >= ln(TPR / FPR).

Every operating point reports this one point estimate, at its own
counts. The ``median`` point thresholds at the lower-median canary loss
and counts losses strictly below it, so its TPR is (ceil(m/2) - 1)/m
when no other canary ties that loss (less when one does), not 1/2.
Exposure gives the paper's reading of the same ratio,
ln(2) * (median exposure - 1); it depends on the tie policy, so the
report keeps it next to the exposure statistics, and no bound uses it.

Empirical rates carry sampling error, so point estimates are paired with
confidence-corrected bounds: one-sided Clopper-Pearson intervals on TPR
(lower) and FPR (upper), the error budget split evenly between the two
sides by a union bound. All canary and reference losses are assumed
independent; this is a heuristic, and every report says so.

Canaries duplicated k times in training leak through group privacy; the
certified per-example epsilon divides the raw bound by k.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

from .attack import MIResult, median_threshold, threshold_attack, tpr_at_fpr
from .baseline import LN2
from .exposure import ExposureReport, exposure_all
from .ingest import AuditDataset

INDEPENDENCE_NOTICE = (
    "canary and reference losses are assumed independent (heuristic); "
    "dependence-aware corrections are out of scope"
)


@dataclass(frozen=True)
class EpsilonBound:
    """A certified epsilon lower bound with every input recorded.

    ``point_estimate`` is the raw ln(TPR/FPR); it may be negative or
    infinite and is reported unfloored for diagnostics.
    ``confident_lower_bound`` is the Clopper-Pearson corrected value,
    floored at zero, and is finite even when the point estimate is
    infinite because the FPR upper bound is always positive.
    """

    point_estimate: float
    confident_lower_bound: float
    confidence: float
    alpha_split: tuple[float, float]
    tpr_lower: float
    fpr_upper: float
    replications: int
    per_example: bool


@dataclass(frozen=True)
class AuditOutcome:
    """One operating point's attack result and bounds."""

    operating_point: str
    mi: MIResult
    bound: EpsilonBound
    per_example_bound: EpsilonBound | None
    warning: str | None


@dataclass(frozen=True)
class AuditResult:
    """Everything audit_pipeline computed for one dataset."""

    exposure_report: ExposureReport
    outcomes: tuple[AuditOutcome, ...]
    confidence: float
    tie_policy: str

    def bounds(self) -> list[EpsilonBound]:
        return [bound for outcome in self.outcomes
                for bound in (outcome.bound, outcome.per_example_bound) if bound is not None]


def epsilon_point(tpr: float, fpr: float) -> float:
    """Raw epsilon point estimate ln(tpr/fpr).

    Returns +inf when fpr = 0 with tpr > 0 (the sample cannot bound the
    ratio), -inf when tpr = 0 with fpr > 0, and 0 when both rates are
    zero. Negative values are reported as-is.
    """
    if not 0.0 <= tpr <= 1.0:
        raise ValueError(f"tpr must be in [0, 1], got {tpr}")
    if not 0.0 <= fpr <= 1.0:
        raise ValueError(f"fpr must be in [0, 1], got {fpr}")
    if fpr == 0.0:
        return math.inf if tpr > 0.0 else 0.0
    if tpr == 0.0:
        return -math.inf
    return math.log(tpr / fpr)


def epsilon_from_median_exposure(exposure_median: float) -> float:
    """The paper's exposure reading of epsilon, ln(2) * (exposure - 1).

    A median exposure of 1 (the random-guessing baseline) maps to zero.
    It depends on the tie policy, so no bound uses it.
    """
    if not math.isfinite(exposure_median):
        raise ValueError(f"exposure_median must be finite, got {exposure_median!r}")
    return LN2 * (exposure_median - 1.0)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2j / (2j (2j - 1)): the Stirling series of ln Gamma, to 1e-16 from z = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_TINY = 1e-300  # keeps Lentz's denominators off zero


def _stirling_error(z: int) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), which is below 1/(12 z)."""
    if z < 10:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w + c
    return series / z


def _log_beta_density(p: float, a: int, b: int) -> float:
    """ln(p^a (1-p)^b / B(a, b)) for 0 < p < 1.

    Stirling's formula writes it as a ln(p/p0) + b ln((1-p)/(1-p0)) with
    p0 = a/(a+b), plus terms below 1, so no three large lgamma values
    cancel (at a + b = 1e5 that costs 1e-9 relative).
    """
    s = a + b
    d = p * s - a  # s (p - p0), shared by both logarithms
    log_pa = a * math.log1p(d / a) if d > -0.5 * a else a * math.log(p * s / a)
    log_qb = b * math.log1p(-d / b) if d < 0.5 * b else b * math.log((1.0 - p) * s / b)
    return (log_pa + log_qb + 0.5 * math.log(a * b / s) - _HALF_LOG_2PI
            - _stirling_error(a) - _stirling_error(b) + _stirling_error(s))


def _beta_fraction(x: float, a: int, b: int, head: float) -> float:
    """The continued fraction F with I_x(a, b) = x^a (1-x)^b F / (a B(a, b)).

    Lentz's method; it converges fast for x < (a+1)/(a+b+2), and ends at
    term b for integer b. ``head`` is its first denominator,
    1 - (a+b) x / (a+1), passed in so the caller can avoid cancellation.
    """
    c, d = 1.0, 1.0 / (head if abs(head) > _TINY else _TINY)
    fraction = d
    for j in range(1, b + 1):
        for num in (j * (b - j) * x / ((a + 2 * j - 1) * (a + 2 * j)),
                    -(a + j) * (a + b + j) * x / ((a + 2 * j) * (a + 2 * j + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            fraction *= c * d
        if abs(c * d - 1.0) <= 2.0 ** -52:
            break
    return fraction


def _log_beta_tail(p: float, a: int, b: int, upper: bool) -> tuple[float, float]:
    """ln I_p(a, b), or ln(1 - I_p(a, b)) if ``upper``, and ln of its density
    factor p^a (1-p)^b / B(a, b)."""
    s = a + b
    log_dens = _log_beta_density(p, a, b)
    if p * (s + 2) < a + 1:
        log_tail = log_dens + math.log(_beta_fraction(p, a, b, 1.0 - s * p / (a + 1)) / a)
        got_upper = False
    else:  # 1 - I_p(a, b) = I_{1-p}(b, a); its head from p, which is exact
        head = (s * p - (a - 1)) / (b + 1)
        log_tail = log_dens + math.log(_beta_fraction(1.0 - p, b, a, head) / b)
        got_upper = True
    if got_upper != upper:
        log_tail = math.log(-math.expm1(log_tail)) if log_tail < 0.0 else -math.inf
    return log_tail, log_dens


def _bits_midpoint(lo: float, hi: float) -> float:
    """The float halfway between lo and hi >= 0 in bit pattern, so halving
    reaches a root of any magnitude in at most 64 steps."""
    lo_bits, hi_bits = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    return struct.unpack("<d", struct.pack("<q", (lo_bits + hi_bits) // 2))[0]


def _beta_tail_root(a: int, b: int, alpha: float, upper: bool) -> float:
    """The p in (0, 1) where I_p(a, b), or 1 - I_p(a, b) if ``upper``, is alpha.

    Newton's method on ln(tail) against ln p (against ln(1 - p) for the
    upper tail), in which the tail is log-concave. A step that leaves the
    bracket, or is not half the last one, is replaced by a bisection of
    the bracket's bit patterns. A relative step below 1e-13 ends the
    search: the evaluation itself is no more precise than that.
    """
    if alpha > 0.5:  # solve for the other tail, which is small; 1 - alpha is exact
        alpha, upper = 1.0 - alpha, not upper
    target = math.log(alpha)
    lo, hi = 0.0, 1.0
    p, last_step = a / (a + b), math.inf
    while True:
        log_tail, log_dens = _log_beta_tail(p, a, b, upper)
        f = log_tail - target
        if f == 0.0:
            return p
        if (f < 0.0) != upper:
            lo = p
        else:
            hi = p
        if log_tail == -math.inf:  # underflowed: no slope, so bisect
            nxt = math.nan
        else:  # exp() capped, so a wild step only leaves the bracket
            w = f * math.exp(min(log_tail - log_dens, 700.0))
            nxt = (p - (1.0 - p) * math.expm1(min(-w * p, 700.0)) if upper
                   else p * math.exp(min(-w * (1.0 - p), 700.0)))
            if abs(nxt - p) <= 1e-13 * p:
                return nxt
        if not (lo < nxt < hi and abs(nxt - p) <= 0.5 * last_step):
            nxt = _bits_midpoint(lo, hi)
            if nxt in (lo, hi):
                return p
        last_step, p = abs(nxt - p), nxt


def clopper_pearson(k: int, trials: int, alpha: float, side: str) -> float:
    """One-sided exact binomial confidence bound on a proportion.

    ``side="lower"`` returns inf{p : P[Bin(trials, p) >= k] >= alpha}
    (0 when k = 0); ``side="upper"`` returns
    sup{p : P[Bin(trials, p) <= k] >= alpha} (1 when k = trials). Both are
    quantiles of the regularized incomplete beta function,
    I_p(k, trials - k + 1) = alpha and 1 - I_p(k + 1, trials - k) = alpha,
    found with the standard library alone: a continued fraction for
    I_p, a Stirling form of its log-beta prefactor, and a safeguarded
    Newton search. It agrees with ``scipy.special.betaincinv`` to 1e-10
    relative for trials up to 1e6 and alpha from 1e-6 to 0.2 (the tests
    pin this; the worst case seen is 7e-12), and the upper tail is solved
    at alpha itself, not at 1 - alpha.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= k <= trials:
        raise ValueError(f"k must be in [0, trials], got k={k}, trials={trials}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if side == "lower":
        return 0.0 if k == 0 else _beta_tail_root(k, trials - k + 1, alpha, upper=False)
    if side == "upper":
        return 1.0 if k == trials else _beta_tail_root(k + 1, trials - k, alpha, upper=True)
    raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


def epsilon_confident(d: AuditDataset, mi: MIResult, confidence: float) -> EpsilonBound:
    """Confidence-corrected epsilon bound for one attack operating point.

    Splits the error budget 1 - confidence evenly between a lower
    Clopper-Pearson bound on TPR and an upper one on FPR; the certified
    bound is max(0, ln(tpr_lower / fpr_upper)).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    tpr_lower = clopper_pearson(mi.canary_hits, mi.m, alpha / 2.0, "lower")
    fpr_upper = clopper_pearson(mi.reference_hits, mi.n, alpha / 2.0, "upper")
    # fpr_upper > 0 whenever alpha < 1, so the corrected bound is finite.
    if tpr_lower == 0.0:
        corrected = 0.0
    else:
        corrected = max(0.0, math.log(tpr_lower / fpr_upper))
    return EpsilonBound(
        point_estimate=epsilon_point(mi.tpr, mi.fpr),
        confident_lower_bound=corrected,
        confidence=confidence,
        alpha_split=(alpha / 2.0, alpha / 2.0),
        tpr_lower=tpr_lower,
        fpr_upper=fpr_upper,
        replications=d.replications,
        per_example=False,
    )


def group_privacy_adjust(epsilon: float, replications: int) -> float:
    """Per-example epsilon when a canary was duplicated ``replications`` times."""
    if isinstance(replications, bool) or not isinstance(replications, int) \
            or replications < 1:
        raise ValueError(f"replications must be a positive integer, got {replications!r}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return epsilon / replications


def _per_example(bound: EpsilonBound) -> EpsilonBound:
    k = bound.replications
    return replace(
        bound,
        point_estimate=bound.point_estimate / k,  # signed diagnostics divide too
        confident_lower_bound=group_privacy_adjust(bound.confident_lower_bound, k),
        per_example=True,
    )


def audit_pipeline(
    d: AuditDataset,
    operating_points=("median",),
    confidence: float = 0.95,
    tie_policy: str = "pessimistic",
) -> AuditResult:
    """Exposure report plus epsilon bounds at each requested operating point.

    Operating points are ``"median"`` (threshold at the lower-median
    canary loss) or a float FPR target in [0, 1] (best attack with at most
    that false positive rate). Every bound is ``epsilon_confident`` at its
    own attack's counts, so no bound depends on ``tie_policy``, which
    only sets the exposure report's ranks. When canaries were replicated,
    a per-example bound divided by the replication count accompanies the
    raw one. Outcomes appear in request order.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    report = exposure_all(d, tie_policy)
    outcomes = []
    for op in operating_points:
        warning = None
        if op == "median":
            mi = threshold_attack(d, median_threshold(d))
            label = "median"
        elif isinstance(op, (int, float)) and not isinstance(op, bool):
            target = float(op)
            mi = tpr_at_fpr(d, target)
            label = f"fpr_target={target:g}"
            if 0.0 < target < 1.0 / d.n:
                warning = (
                    f"fpr target {target:g} is below the achievable resolution "
                    f"1/n = {1.0 / d.n:g}; bound computed at achieved fpr {mi.fpr:g}"
                )
        else:
            raise ValueError(
                f"operating point must be 'median' or an fpr target in [0, 1], got {op!r}"
            )
        bound = epsilon_confident(d, mi, confidence)
        per_example_bound = _per_example(bound) if d.replications > 1 else None
        outcomes.append(AuditOutcome(operating_point=label, mi=mi, bound=bound,
                                     per_example_bound=per_example_bound, warning=warning))
    return AuditResult(
        exposure_report=report,
        outcomes=tuple(outcomes),
        confidence=confidence,
        tie_policy=tie_policy,
    )

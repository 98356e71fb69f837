"""Numerical verification of the trilinear identities, inequalities and
energy balance underlying the radius-decay estimates.

Identity checks compare the brute-force triad sums of the tagged
decompositions term by term; scalar checks sweep integer triples
exhaustively; constant estimation reports empirical sup ratios against the
right-hand-side structures with unit constant.
"""

from dataclasses import astuple, dataclass, replace

import numpy as np

from .norms import GevreyParams, NormRecord, field_norms, sup_gradient
from .operators import (
    MultiplierSpec,
    advect,
    advect_samples,
    biot_savart,
    cross_gradient_samples,
    curl,
    gradient_physical,
    inner_l2,
    inner_weighted,
    lambda_apply,
    multiplier_weights,
)
from .solver import MHDState, step_rk4
from .spectral import SpectralField, to_physical
from .triads import extract_band, pair_marginal, weight_tables, weighted_sum

TINY = 1e-300


@dataclass
class TriadReport:
    """Outcome of one decomposition identity check."""

    name: str
    lhs: complex
    parts: dict
    residual: float
    scale: float
    note: str = ""


@dataclass
class InequalityReport:
    """Outcome of an inequality sweep or sampled verification."""

    name: str
    checked: int
    violations: int
    worst_margin: float
    empirical_C: float = float("nan")

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _residual(lhs: complex, parts_sum: complex, part_values) -> tuple:
    scale = max(abs(lhs), sum(abs(p) for p in part_values), TINY)
    return abs(lhs - parts_sum) / scale, scale


def weighted_inner(f: SpectralField, g: SpectralField,
                   spec: MultiplierSpec) -> float:
    """<f, Lam_m^{2r} e^{2 tau Lam_m^{1/s}} g> via the transform path."""
    w = multiplier_weights(f.grid, spec)
    return inner_weighted(f, g, w * w)


def cancellation_residual(u: SpectralField, w: SpectralField,
                          spec: MultiplierSpec) -> float:
    """|<u . grad wt, wt>| / (||u|| ||wt||^2) for wt the Gevrey-weighted w.

    Zero up to roundoff for divergence-free u.
    """
    wt = lambda_apply(w, spec)
    val = inner_l2(advect(u, wt), wt)
    unorm = np.sqrt(max(inner_l2(u, u), 0.0))
    wnorm2 = max(inner_l2(wt, wt), 0.0)
    denom = unorm * wnorm2
    if denom == 0.0:
        return 0.0
    return abs(val) / denom


KNOWN_IDENTITIES = ("3.3", "3.7", "3.15", "3.23", "3.25", "3.32")


def triad_decomposition_check(u: SpectralField, h: SpectralField,
                              omega: SpectralField, current: SpectralField,
                              spec: MultiplierSpec, which: str,
                              kmax: int = 4) -> TriadReport:
    """Verify one of the algebraic decomposition identities by brute force.

    The inputs must be band-limited to |k_i| <= kmax.  Residuals are pure
    roundoff when the identity holds.
    """
    if which not in KNOWN_IDENTITIES:
        raise ValueError(
            f"unknown identity tag {which!r}; known: {KNOWN_IDENTITIES}"
        )
    m, r, tau, s = spec.m, spec.r, spec.tau, spec.s
    if m not in (1, 2, 3):
        raise ValueError("decomposition checks need a directional m in 1..3")
    tables = weight_tables(kmax, r, tau, s)

    def terms(a, b, c, names):
        A = extract_band(a, kmax)
        B = extract_band(b, kmax)
        C = extract_band(c, kmax)
        P = pair_marginal(A, B, C, kmax, m)
        return {nm: weighted_sum(P, tables[nm]) for nm in names}

    if which == "3.3":
        t = terms(u, current, current, ("full", "cancel", "t1", "t2"))
        lhs = t["full"] - t["cancel"]
        parts = {"T1": t["t1"], "T2": t["t2"]}
        res, scale = _residual(lhs, t["t1"] + t["t2"], parts.values())
        return TriadReport(which, lhs, parts, res, scale)

    if which in ("3.7", "3.25"):
        # T2 of the weighted transport form against the three-way remainder
        # split; both sign conventions for the third block are reported.
        a, b, c = (u, current, current) if which == "3.7" else (h, omega, current)
        t = terms(a, b, c, ("t2", "r1", "r2", "r3"))
        lhs = t["t2"]
        minus = t["r1"] + t["r2"] - t["r3"]
        plus = t["r1"] + t["r2"] + t["r3"]
        res_minus, scale = _residual(lhs, minus, (t["r1"], t["r2"], t["r3"]))
        res_plus, _ = _residual(lhs, plus, (t["r1"], t["r2"], t["r3"]))
        if res_minus <= res_plus:
            note = "closes with R1+R2-R3; the +R3 convention does not"
            res = res_minus
        else:
            note = "closes with R1+R2+R3; the -R3 convention does not"
            res = res_plus
        parts = {"R1": t["r1"], "R2": t["r2"], "R3": t["r3"]}
        return TriadReport(which, lhs, parts, res, scale, note)

    if which in ("3.15", "3.32"):
        a, b, c = (current, u, current) if which == "3.15" else (current, h, omega)
        t = terms(a, b, c, ("full", "wfirst", "cancel", "s1", "s2", "s3"))
        lhs = t["full"] - t["wfirst"] - t["cancel"]
        parts = {"T1": t["s1"], "T2": t["s2"], "T3": t["s3"]}
        res, scale = _residual(lhs, t["s1"] + t["s2"] + t["s3"], parts.values())
        return TriadReport(which, lhs, parts, res, scale)

    # 3.23: paired symmetric split for the magnetic coupling.
    t1 = terms(h, current, omega, ("full", "cancel", "tdiff"))
    t2 = terms(h, omega, current, ("full", "cancel", "tdiff"))
    lhs = t1["full"] + t2["full"] - (t1["cancel"] + t2["cancel"])
    rhs = t1["tdiff"] + t2["tdiff"]
    parts = {"T_hJw": t1["tdiff"], "T_hwJ": t2["tdiff"],
             "cancel_pair": t1["cancel"] + t2["cancel"]}
    res, scale = _residual(lhs, rhs, (t1["tdiff"], t2["tdiff"]))
    return TriadReport(which, lhs, parts, res, scale)


SWEEP_CAP = 200  # largest bound of the scalar sweep


def scalar_inequality_suite(bound: int, s_values, r: float = 3.6) -> dict:
    """Exhaustive integer sweeps of the scalar identities and bounds.

    Over all |j_m|, |k_m| <= bound with k_m != 0, l_m = -j_m - k_m != 0:

      decomposition  -- the exact split of |l_m| - |k_m| (identity)
      root_diff      -- | |l|^{1/s} - |k|^{1/s} | <= |j|^{1/s}
      root_diff_C    -- same LHS <= C |j| / (|l|^{1-1/s} + |k|^{1-1/s})
      mean_value     -- second-order expansion bounds for rho in {r, r +- 1/2s}
      triangle       -- |l|^{1/2s} <= |j|^{1/2s} + |k|^{1/2s}

    Returns a dict name -> InequalityReport; empirical constants are reported
    for the C-form bounds.
    """
    if bound > SWEEP_CAP:
        raise ValueError(f"sweep bound {bound} exceeds the cap {SWEEP_CAP}")
    vals = np.arange(-bound, bound + 1)
    jm, km = np.meshgrid(vals, vals, indexing="ij")
    lm = -jm - km
    mask = (km != 0) & (lm != 0)
    jm, km, lm = jm[mask], km[mask], lm[mask]
    aj, ak, al = np.abs(jm), np.abs(km), np.abs(lm)
    n = jm.size

    # exact decomposition of |l| - |k|
    flip = np.sign(km + jm) * np.sign(km) == -1
    rhs = jm * np.sign(km) + 2 * (jm + km) * np.sign(jm) * flip
    dec_bad = np.count_nonzero((al - ak) != rhs)
    reports = {
        "decomposition": InequalityReport(
            "decomposition", n, int(dec_bad),
            float(np.max(np.abs((al - ak) - rhs))),
        )
    }

    rd_checked = rd_bad = tri_bad = 0
    rd_worst = tri_worst = -np.inf
    rdc_sup = 0.0
    mv_sup = {}
    for s in s_values:
        inv = 1.0 / s
        lhs = np.abs(al**inv - ak**inv)
        margin = aj**inv - lhs
        rd_checked += n
        rd_bad += int(np.count_nonzero(margin < -1e-12))
        rd_worst = max(rd_worst, float(-np.min(margin)))
        denom = al ** (1.0 - inv) + ak ** (1.0 - inv)
        nz = jm != 0
        rdc_sup = max(
            rdc_sup,
            float(np.max(lhs[nz] * denom[nz] / aj[nz])) if nz.any() else 0.0,
        )
        tmar = aj ** (0.5 * inv) + ak ** (0.5 * inv) - al ** (0.5 * inv)
        tri_bad += int(np.count_nonzero(tmar < -1e-12))
        tri_worst = max(tri_worst, float(-np.min(tmar)))
        for rho in (r, r + 0.5 * inv, r - 0.5 * inv):
            lhs_mv = np.abs(
                al**rho - ak**rho - rho * (al - ak) * ak ** (rho - 1.0)
            )
            rhs_mv = aj**2 * (
                np.where(aj > 0, aj ** (rho - 2.0), 0.0) + ak ** (rho - 2.0)
            )
            nz2 = (jm != 0) & (rhs_mv > 0)
            key = f"mean_value[s={s},rho={rho:g}]"
            mv_sup[key] = float(np.max(lhs_mv[nz2] / rhs_mv[nz2]))

    reports["root_diff"] = InequalityReport(
        "root_diff", rd_checked, rd_bad, rd_worst
    )
    reports["root_diff_C"] = InequalityReport(
        "root_diff_C", rd_checked, 0, 0.0, empirical_C=rdc_sup
    )
    reports["triangle"] = InequalityReport(
        "triangle", rd_checked, tri_bad, tri_worst
    )
    mv_c = max(mv_sup.values())
    reports["mean_value"] = InequalityReport(
        "mean_value", rd_checked * 3, 0, 0.0, empirical_C=mv_c
    )
    return reports


def operator_inequality_suite(fields, r: float = 3.0, tau: float = 0.2,
                              s: float = 1.0) -> dict:
    """Sharp constant-1 operator chains plus empirical constants.

    For each sample w (mean-zero, divergence-free) and m = 1, 2, 3:

      direct chain    ||Lam_m^r w|| <= ||Lam Lam_m^{r-1} w||           (and
                      the tau-weighted version), constant exactly 1
      inversion chain ||Lam_m^{r+1} v|| <= ||Lam Lam_m^r v|| for the
                      curl-inverted v, plus its tau-weighted version
      empirical       sup ratios ||Lam Lam_m^{r-1} e^{tau .} w|| / ||w||_X
                      and ||Lam Lam_m^r e^{tau .} v|| / ||w||_X
    """
    params = GevreyParams(r=r, s=s, tau=tau)
    n_checked = violations = 0
    worst = -np.inf
    emp = [0.0, 0.0]  # direct, Biot-Savart

    def l2(f):
        return np.sqrt(max(inner_l2(f, f), 0.0))

    for w in fields:
        # the direct chain on w and the inversion chain on its curl inverse
        chains = ((w, r), (biot_savart(w), r + 1))
        x_norm = field_norms(w, params)[1]
        for m in (1, 2, 3):
            for use_tau in (0.0, tau):
                for i, (f, rho) in enumerate(chains):
                    spec = MultiplierSpec(m=m, r=rho, tau=use_tau, s=s)
                    lhs = l2(lambda_apply(f, spec))
                    mid = lambda_apply(f, MultiplierSpec(m=m, r=rho - 1,
                                                         tau=use_tau, s=s))
                    rhs = l2(lambda_apply(mid, MultiplierSpec(m=0, r=1)))
                    n_checked += 1
                    margin = rhs - lhs
                    worst = max(worst, -margin)
                    if margin < -1e-12 * max(rhs, 1.0):
                        violations += 1
                    if use_tau == tau and x_norm > 0:
                        emp[i] = max(emp[i], rhs / x_norm)
    return {
        "constant_one": InequalityReport(
            "constant_one", n_checked, violations, float(worst)
        ),
        "direct_C": InequalityReport(
            "direct_C", n_checked, 0, 0.0, empirical_C=emp[0]
        ),
        "biot_savart_C": InequalityReport(
            "biot_savart_C", n_checked, 0, 0.0, empirical_C=emp[1]
        ),
    }


# The eight transport terms of the vorticity/current system, one row each:
# (a, b, c, sign, lemma) adds sign (a.grad)b to the tendency of c.  Paired
# with c, the row's term is one term of the weighted balance, and `lemma`
# tags the trilinear estimate that bounds it: 3.1 and 3.2 make up K1, 3.21
# is K2, 3.22 is K3.  The current rows are not the curl of the induction
# equation; K4 (balance_terms) is their difference from it.
CURL_TERMS = (
    ("u", "omega", "omega", -1.0, "3.1"),
    ("omega", "u", "omega", 1.0, "3.1"),
    ("u", "current", "current", -1.0, "3.2"),
    ("current", "u", "current", -1.0, "3.2"),
    ("h", "current", "omega", 1.0, "3.21"),
    ("h", "omega", "current", 1.0, "3.21"),
    ("current", "h", "omega", -1.0, "3.22"),
    ("omega", "h", "current", 1.0, "3.22"),
)
KNOWN_LEMMAS = tuple(dict.fromkeys(row[4] for row in CURL_TERMS))
_BALANCE_GROUP = {"3.1": 0, "3.2": 0, "3.21": 1, "3.22": 2}  # lemma -> K index


def _curl_norm_sq(state: MHDState, spec: MultiplierSpec) -> float:
    """The weighted ||omega||^2 + ||J||^2 of a primitive state."""
    omega, current = curl(state.u), curl(state.h)
    return (weighted_inner(omega, omega, spec)
            + weighted_inner(current, current, spec))


def balance_terms(u: SpectralField, h: SpectralField,
                  spec: MultiplierSpec) -> tuple:
    """K1..K4 of d/dt 1/2 (|omega|^2 + |J|^2) at the primitive pair (u, h).

    K1, K2 and K3 sum the rows of CURL_TERMS by lemma.  K4 pairs with J the
    rest of the curl of the induction tendency,
    -(omega.grad)h + (J.grad)u - [E(u, h) - E(h, u)], which no lemma covers.
    u, h, omega and J are transformed once, in one call, and each field a
    row differentiates gives one gradient tensor, which makes the products
    of its rows; the gradients of u and h also make E(u, h) - E(h, u).
    """
    grid = u.grid
    fields = {"u": u, "h": h, "omega": curl(u), "current": curl(h)}
    samples = to_physical(*fields.values())
    samples = dict(zip(fields, np.split(samples, len(fields))))
    weights = multiplier_weights(grid, spec)
    weights = weights * weights
    trilinear, grads = {}, {}
    for b in dict.fromkeys(row[1] for row in CURL_TERMS):
        grad = gradient_physical(fields[b])
        for a, row_b, c, _, _ in CURL_TERMS:
            if row_b == b:
                trilinear[a, b, c] = inner_weighted(
                    advect_samples(grid, samples[a], grad), fields[c],
                    weights)
        if b in ("u", "h"):
            grads[b] = grad
        del grad
    del samples
    cross = cross_gradient_samples(grid, grads.pop("u"), grads.pop("h"))
    k = [0.0, 0.0, 0.0]
    for a, b, c, sign, lemma in CURL_TERMS:
        k[_BALANCE_GROUP[lemma]] += sign * trilinear[a, b, c]
    k4 = (trilinear["current", "u", "current"]
          - trilinear["omega", "h", "current"]
          - inner_weighted(cross, fields["current"], weights))
    return (*k, k4)


def energy_balance_check(state: MHDState, spec: MultiplierSpec,
                         dt_values, tau_dot: float = 0.0) -> dict:
    """Central-difference check of the weighted energy balance along step_rk4.

    For each dt, the norm increment over a step of dt is compared with
    K1 + K2 + K3 + K4 (plus the tau-rate term when tau_dot != 0) at a step
    of dt/2.  Each distinct step length among the dts and their halves is
    stepped once from the state, so halving dts (1e-2, 5e-3, 2.5e-3) take 4
    steps, not 6: a half step that equals, as a float, another dt's full
    step serves both.  A stepped state gives its half-step terms, its
    full-step norm or both, and is then dropped.  Returns per-dt defects and
    observed convergence orders.
    """
    dts = list(dt_values)
    n0 = 0.5 * _curl_norm_sq(state, spec)
    derivs, rhs, scales = {}, {}, {}
    for length in dict.fromkeys(x for dt in dts for x in (0.5 * dt, dt)):
        stepped = step_rk4(state, length)
        for i, dt in enumerate(dts):
            if 0.5 * dt == length:
                spec_h = replace(spec, tau=spec.tau + 0.5 * tau_dot * dt)
                terms = balance_terms(stepped.u, stepped.h, spec_h)
                rhs[i] = sum(terms)
                if tau_dot != 0.0:
                    y_spec = replace(spec_h, r=spec_h.r + 0.5 / spec_h.s)
                    rhs[i] += tau_dot * _curl_norm_sq(stepped, y_spec)
                scales[i] = sum(abs(x) for x in terms)
            if dt == length:
                spec1 = replace(spec, tau=spec.tau + tau_dot * dt)
                derivs[i] = (0.5 * _curl_norm_sq(stepped, spec1) - n0) / dt
        del stepped
    defects = [abs(derivs[i] - rhs[i]) / max(abs(derivs[i]), scales[i], TINY)
               for i in range(len(dts))]
    orders = [
        float(np.log2(defects[i] / defects[i + 1]))
        for i in range(len(defects) - 1)
        if defects[i + 1] > 0
    ]
    return {"dt": dts, "defects": defects, "orders": orders}


def estimate_constant(lemma: str, samples, spec: MultiplierSpec) -> float:
    """Empirical sup of LHS / RHS for a lemma's estimate with unit constant.

    samples is an iterable of (omega, current) divergence-free pairs; the
    velocity and magnetic fields are recovered by curl inversion.  The LHS
    is |T1| + |T2| over the lemma's two rows of CURL_TERMS, except for 3.21,
    whose two terms cancel at top order only together and which bounds
    |T1 + T2|.  Zero samples are skipped; a vanishing RHS with nonzero LHS
    reports a counterexample candidate.
    """
    if lemma not in KNOWN_LEMMAS:
        raise ValueError(f"unknown lemma tag {lemma!r}; known: {KNOWN_LEMMAS}")
    r, tau, s = spec.r, spec.tau, spec.s
    params = GevreyParams(r=r, s=s, tau=tau)
    rows = [row for row in CURL_TERMS if row[4] == lemma]
    sup = 0.0
    used = 0
    for omega, current in samples:
        fields = {"u": biot_savart(omega), "h": biot_savart(current),
                  "omega": omega, "current": current}
        # The products do not depend on the direction m; form them once.
        terms = [(sign, advect(fields[a], fields[b]), fields[c])
                 for a, b, c, sign, _ in rows]
        gu = sup_gradient(fields["u"])[0]
        gh = sup_gradient(fields["h"])[0]
        per_field = field_norms(omega, params), field_norms(current, params)
        (hr_o, x_o, y_o), (_, x_j, y_j) = per_field
        hr_pair, x_pair, y_pair = astuple(
            NormRecord(*map(np.hypot, *per_field)))
        if lemma == "3.1":
            rhs = ((tau * gu + tau**2 * hr_o + tau**2 * x_o) * y_o**2
                   + (gu * x_o + (1 + tau) * hr_o**2) * x_o)
        elif lemma == "3.2":
            rhs = ((tau * gu + tau**2 * hr_pair + tau**2 * x_pair)
                   * y_pair * y_j
                   + (gu * x_j + gh * x_o + (1 + tau) * hr_pair**2) * x_j)
        elif lemma == "3.21":
            rhs = ((tau * gh + tau**2 * hr_pair + tau**2 * x_pair)
                   * y_pair**2
                   + (gh * x_pair + (1 + tau) * hr_pair**2) * x_pair)
        else:  # 3.22
            rhs = ((gu + gh) * x_pair**2 + tau * hr_pair**2 * x_pair
                   + tau**2 * (hr_pair + x_pair) * y_pair**2)
        for m in (1, 2, 3):
            mspec = MultiplierSpec(m=m, r=r, tau=tau, s=s)
            t1, t2 = (sign * weighted_inner(prod, c, mspec)
                      for sign, prod, c in terms)
            lhs = abs(t1 + t2) if lemma == "3.21" else abs(t1) + abs(t2)
            if lhs == 0.0 and rhs == 0.0:
                continue
            if rhs == 0.0:
                raise RuntimeError(
                    f"counterexample candidate for lemma {lemma}: LHS={lhs} "
                    f"with vanishing RHS at m={m}; omega max "
                    f"{omega.max_amplitude():.3e}, J max "
                    f"{current.max_amplitude():.3e}"
                )
            sup = max(sup, lhs / rhs)
            used += 1
    if used == 0:
        raise ValueError("no nonzero samples supplied")
    return float(sup)

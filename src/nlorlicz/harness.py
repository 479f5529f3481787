"""Named property-test battery for the functional inequalities.

Every inequality the energy calculus provides is exercised against seeded
function corpora and reported as one PropertyResult row.  The battery is the
package's research artifact as much as its test surface: rows carry the
worst normalized margin seen, a config digest, and a note when a property is
skipped because its structural precondition fails for the given kernel or
nonlinearity.  Equal seeds give bit-identical tables.

A property is one function that returns margins, plus one entry of the
table _BATTERY (name, runner, default tolerance).  A runner takes
(asm, spec, rng) and returns (trials, margins) or (trials, margins, fields),
where fields holds any note, report_only flag and extras; a skip is
_skip(reason).  Margins carry no tolerance: run_battery names each row and
scores it with _score, which counts the margins below minus the tolerance
(sobolev_embedding_check, outside the battery, scores its row the same way).

A property first draws its whole corpus, in the order the seeded draws have
always run, and then evaluates it as stacks: rows of a (k, n) array that
go through the pair pass together (energy._pair_pass), so on the FFT routes
(a quadratic psi, and an even polynomial psi from energy._EVEN_MIN_NODES
nodes up) a property costs a few batched stencil products instead of one
per function.  Each row's energy, gradient and pairing keep the bits of a
single call of E_value, gradient_E and interaction.  gradient_bound,
interpolation and sobolev_r_star calibrate on one fixed corpus, the training
bumps, which is built and evaluated once per assembly (_calibration) and
shared by the three rows: their own stacks hold only their fresh draws.

The battery is pure evaluation and solves nothing.  pohozaev's rescaling
ratio is an identity for power reactions, so it is taken on a seeded
nonnegative function, not on a computed solution.  poincare's stack ends
with the constant 1, whose energy is all exterior term, so that row checks
the zero exterior condition.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import (EnergyAssembly, F_value, _pair_pass, _pass, central_gradient_norm,
                     luxemburg_norm_of)
from .grid import GridFunction, bump_values, decreasing_rearrangement, indicator_function
from .kernels import poincare_constant
from .linalg import dot
from .solvers import power_reaction, pohozaev_check
from .young import (
    calibrate_singular_constant,
    clarkson_conditions,
    complementary,
    gamma_bounds,
    gamma_plus_deriv,
    sv_delta,
)

_GL64_X, _GL64_W = np.polynomial.legendre.leggauss(64)

@dataclass(frozen=True)
class CorpusSpec:
    """Seeded corpus description: generator kinds and trial counts."""

    seed: int = 0
    trials: int = 100
    amplitude: float = 1.0
    pair_samples: int = 10000


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst_margin: float
    config_digest: str
    tolerance: float
    note: str = ""
    report_only: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.report_only or self.failures == 0


def config_digest(asm: EnergyAssembly, seed: int) -> str:
    return parts_digest(asm.kernel, asm.young, asm.grid, seed)


def parts_digest(kernel, young, grid, seed: int) -> str:
    """config_digest of an assembly of these parts, without assembling."""
    blob = json.dumps(
        {
            "kernel": [kernel.family, kernel.dim, sorted(kernel.params.items())],
            "young": [young.family, sorted(map(repr, young.params.items()))],
            "grid": [grid.shape, grid.bounds, grid.n_per_axis],
            "seed": seed,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _corpus(asm: EnergyAssembly, spec: CorpusSpec, kind: str, rng) -> np.ndarray:
    """The node values of one corpus function of the requested kind."""
    g = asm.grid
    if kind == "random" or kind == "sign_mixed":
        return rng.uniform(-spec.amplitude, spec.amplitude, g.n_nodes)
    if kind == "nonnegative":
        return rng.uniform(0.0, spec.amplitude, g.n_nodes)
    if kind == "bump":
        c = g.center + (rng.uniform(-0.2, 0.2, g.dim) * g.inradius)
        radius = rng.uniform(0.3, 0.7) * g.inradius
        return bump_values(g, c, radius, rng.uniform(0.2, 1.0) * spec.amplitude)
    if kind == "indicator":
        return indicator_function(g, int(rng.integers(0, 2**31)), rng.uniform(0.1, 0.5),
                                  spec.amplitude).values
    raise ValueError(kind)


def _stack(asm, spec, rng, kinds):
    """Corpus functions of the given kinds, drawn in order, as the rows of a
    (len(kinds), n) stack."""
    rows = [_corpus(asm, spec, kind, rng) for kind in kinds]
    return np.reshape(rows, (len(kinds), asm.grid.n_nodes))


def _dots(G, Phi):
    """interaction(u_i, phi_i) from the gradient rows G_i = gradient_E(u_i):
    one dot product per row, so each keeps the bits of interaction."""
    return np.array([dot(g, phi) for g, phi in zip(G, Phi)])


def _modular(asm, X):
    """F_value of each row of the stack X."""
    return np.sum(asm.young.value(X), axis=-1) * asm.h_pow_dim


def _skip(reason):
    """The row of a property whose structural precondition fails."""
    return 0, [], {"note": f"skipped: {reason}"}


def _score(name, digest, tol, trials, margins, fields=None):
    """The PropertyResult of a runner's row: a failure is a margin below
    -tol, and the worst margin is the smallest (0 when there is none)."""
    margins = np.asarray(margins, dtype=float)
    return PropertyResult(name, int(trials), int(np.sum(margins < -tol)),
                          float(margins.min()) if margins.size else 0.0, digest, tol,
                          **(fields or {}))


# --- individual properties -------------------------------------------------


def _prop_equiv_ee(asm, spec, rng):
    U = _stack(asm, spec, rng, ["random"] * spec.trials)
    E, G = _pass(asm, U, True, True)
    I = _dots(G, U)
    scale = np.maximum(1.0, np.abs(I))
    margins = [(I - asm.young.q * E) / scale, (asm.young.p * E - I) / scale]
    return spec.trials, np.concatenate(margins)


def _prop_young_inequality(asm, spec, rng):
    conj = complementary(asm.young)
    a = rng.uniform(-10.0, 10.0, spec.pair_samples)
    b = rng.uniform(-10.0, 10.0, spec.pair_samples)
    # the tolerance on this residual is absolute, so no normalization
    margins = asm.young.value(a) + conj.phi_raw(b) - a * b
    # equality witnesses at b = deriv(|a|) sign(a): the inequality is an
    # equality there, so each gap counts as the margin -|gap| (0 - |gap|,
    # so that a zero gap is +0)
    aw = rng.uniform(-3.0, 3.0, 100)
    bw = asm.young.deriv(aw)
    gaps = np.abs(asm.young.value(aw) + conj.phi_raw(bw) - aw * bw)
    return (spec.pair_samples + aw.size, np.concatenate([margins, 0.0 - gaps]),
            {"extras": {"equality_gap": float(np.max(gaps))}})


def _prop_luxemburg_sandwich(asm, spec, rng):
    margins = []
    for _ in range(spec.trials):
        u = GridFunction(asm.grid, _corpus(asm, spec, "random", rng))
        norm = luxemburg_norm_of(asm, u)
        if norm == 0.0:
            continue
        F = F_value(asm, u)
        gm, gp = gamma_bounds(asm.young, norm)
        scale = max(1.0, F)
        margins += [(F - gm) / scale, (gp - F) / scale]
    return spec.trials, margins


def _prop_poincare(asm, spec, rng):
    A = poincare_constant(asm.kernel, asm.grid)
    # the constant 1 closes the stack: its pair differences vanish, so its
    # E = sum Lambda psi(1) h^N and E / (A F) = mean(Lambda) / A, which is
    # at least 4.15 on 12 kernels x 7 interval, box and ball grids.  This
    # row guards the zero exterior condition; the noise rows' energy is
    # mostly pair differences.
    U = np.concatenate([_stack(asm, spec, rng, ["random"] * spec.trials),
                        np.ones((1, asm.grid.n_nodes))])
    E = _pair_pass(asm, U, grad=False)
    margins = (E - A * _modular(asm, U)) / np.maximum(1.0, E)
    return spec.trials + 1, margins, {"extras": {"constant": A}}


def _prop_kato_pointwise(asm, spec, rng):
    # the per-node bound with the upper characteristic constant is provable
    # only when the derivative is homogeneous: for a negative difference the
    # multiplicative bound would need the lower characteristic instead, and
    # nodes dominated by negative-difference terms can genuinely violate the
    # stated constant (seen for strongly non-homogeneous nonlinearities).
    # The integral inequalities are exact for every psi; this one is
    # asserted for homogeneous psi (p = q) and reported otherwise.
    report_only = not asm.young.homogeneous
    note = ("" if not report_only else
            "upper-characteristic pointwise bound guaranteed only for "
            "homogeneous derivatives; reported")
    U = _stack(asm, spec, rng, ["nonnegative"] * spec.trials)
    # apply_operator of u^2 and of u
    L = _pair_pass(asm, np.concatenate([U ** 2, U]), grad=True) / asm.h_pow_dim
    lhs, rhs = L[:len(U)], gamma_plus_deriv(asm.young, 2.0 * U) * L[len(U):]
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=-1))
    margins = np.min(rhs - lhs, axis=-1) / scale
    return spec.trials, margins, {"note": note, "report_only": report_only}


def _prop_kato_integral(asm, spec, rng):
    U = _stack(asm, spec, rng, ["nonnegative"] * spec.trials)
    Gv = gamma_plus_deriv(asm.young, 2.0 * U) * U ** 2
    lhs = _dots(_pair_pass(asm, U, grad=True), Gv)
    rhs = asm.young.q * _pair_pass(asm, U ** 2, grad=False)
    margins = (lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    return spec.trials, margins


def _prop_kato_simple(asm, spec, rng):
    U = _stack(asm, spec, rng, ["sign_mixed"] * spec.trials)
    Up, k = np.maximum(U, 0.0), len(U)
    G = _pair_pass(asm, np.concatenate([U, Up]), grad=True)
    E = _pair_pass(asm, np.concatenate([U, np.abs(U)]), grad=False)
    I = _dots(G[:k], Up)  # interaction(u, u+)
    scale = np.maximum(np.maximum(1.0, np.abs(I)), E[:k])
    margins = [(I - _dots(G[k:], Up)) / scale, (E[:k] - E[k:]) / scale]
    return spec.trials, np.concatenate(margins)


def _sv_antiderivative(asm, t: np.ndarray) -> np.ndarray:
    """G(t) = integral over (0,t) of value(2s) ds by 64-point Gauss quadrature."""
    t = np.asarray(t, dtype=float)
    nodes = 0.5 * (_GL64_X + 1.0)  # on (0,1)
    vals = asm.young.value(2.0 * t[:, None] * nodes[None, :])
    return t * 0.5 * (vals @ _GL64_W)


def _prop_stroock_varopoulos(asm, spec, rng):
    delta = sv_delta(asm.young)
    coef = delta * asm.young.q / asm.young.p
    U = _stack(asm, spec, rng, ["nonnegative"] * spec.trials)
    G = [_sv_antiderivative(asm, u) for u in U]
    lhs = _dots(_pair_pass(asm, U, grad=True), G)
    rhs = coef * _pair_pass(asm, U ** 2, grad=False)
    margins = (lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    return spec.trials, margins, {"extras": {"delta": delta}}


def _prop_sv_power(asm, spec, rng):
    if not asm.young.homogeneous:
        return _skip("needs a pure-power nonlinearity")
    p = asm.young.p
    margins = []
    for r in (1.0, 2.0):
        beta = (r + p - 1.0) / p
        coef = sv_delta(asm.young) * asm.young.q / p * r / beta ** p
        U = _stack(asm, spec, rng, ["sign_mixed"] * (spec.trials // 2))
        lhs = _dots(_pair_pass(asm, U, grad=True), np.abs(U) ** (r - 1.0) * U)
        rhs = coef * _pair_pass(asm, np.abs(U) ** beta, grad=False)
        margins.append((lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
    return spec.trials, np.concatenate(margins)


def _prop_clarkson1(asm, spec, rng):
    conds = clarkson_conditions(asm.young)
    if not conds.get("sqrt_convex"):
        return _skip("sampled sqrt-convexity condition fails")
    a = rng.uniform(-5.0, 5.0, spec.pair_samples)
    b = rng.uniform(-5.0, 5.0, spec.pair_samples)
    left = (asm.young.deriv(a) - asm.young.deriv(b)) * (a - b)
    right = 4.0 * asm.young.value((a - b) / 2.0)
    margins = (left - right) / np.maximum(1.0, np.abs(left))
    return spec.pair_samples, margins


def _prop_clarkson3(asm, spec, rng):
    conds = clarkson_conditions(asm.young)
    if not conds.get("power_pinch"):
        return _skip("needs the singular power pinch with 1 < p < 2")
    c = calibrate_singular_constant(asm.young)
    a = rng.uniform(-5.0, 5.0, spec.pair_samples)
    b = rng.uniform(-5.0, 5.0, spec.pair_samples)
    keep = np.abs(a - b) > 1e-12
    a, b = a[keep], b[keep]
    left = (asm.young.deriv(a) - asm.young.deriv(b)) * (a - b)
    p = asm.young.p
    right = c * asm.young.value(a - b) ** (2.0 / p) / (
        asm.young.value(a) + asm.young.value(b)
    ) ** ((2.0 - p) / p)
    margins = (left - right) / np.maximum(1.0, np.abs(left))
    return keep.sum(), margins, {"extras": {"constant": c}}


def _prop_symmetrization(asm, spec, rng):
    report_only = asm.grid.dim != 1
    note = "" if asm.grid.dim == 1 else "2D rearrangement is approximate; reported only"
    if not asm.kernel.monotone:
        report_only = True
        note = "kernel not radially nonincreasing; reported only"
    # the last 5 are a near-extremal probe: recentering an off-center bump is
    # an equality in the continuum, so its discrete margin is pure grid
    # error; reported only
    kinds = [("random", "indicator")[k % 2] for k in range(spec.trials)] + ["bump"] * 5
    U = _stack(asm, spec, rng, kinds)
    Us = [decreasing_rearrangement(GridFunction(asm.grid, u)).values for u in U]
    E = _pair_pass(asm, np.concatenate([U, Us]), grad=False)
    margins = (E[:len(U)] - E[len(U):]) / np.maximum(1.0, E[:len(U)])
    return spec.trials, margins[:spec.trials], {
        "note": note, "report_only": report_only,
        "extras": {"bump_probe_worst": float(margins[spec.trials:].min())}}


def _training_bumps(asm):
    """Deterministic calibration lattice covering the bump family, as the
    rows of a (42, n) stack: radius slowest, then height, then center."""
    g = asm.grid
    radius = np.repeat(np.linspace(0.2, 0.85, 7), 3)[:, None] * g.inradius
    height = np.tile([0.25, 1.0, 2.2], 7)[:, None]
    rows = [bump_values(g, g.center + off * g.inradius, radius, height) for off in (0.0, 0.15)]
    return np.stack(rows, axis=1).reshape(42, g.n_nodes)


def _validation_bumps(asm, rng, count):
    """Random draws strictly inside the calibration lattice ranges, as the
    rows of a (count, n) stack."""
    out = []
    for _ in range(count):
        c = asm.grid.center + rng.uniform(0.0, 0.13, asm.grid.dim) * asm.grid.inradius
        radius = rng.uniform(0.25, 0.8) * asm.grid.inradius
        out.append(bump_values(asm.grid, c, radius, rng.uniform(0.3, 2.0)))
    return np.array(out)


def _evaluate_bumps(asm, X):
    """E, F and the F of the central-difference gradient of each row of X."""
    Fg = _modular(asm, central_gradient_norm(asm.grid, X))
    return _pair_pass(asm, X, grad=False), _modular(asm, X), Fg


# an assembly's calibration, held no longer than the assembly: the key is
# the assembly itself, which hashes by identity
_CALIBRATIONS = weakref.WeakKeyDictionary()


def _calibration(asm):
    """(X, E, F, Fg): the training bumps X and their _evaluate_bumps, made
    on the first call for an assembly and kept, read-only, while it lives.
    gradient_bound, interpolation and sobolev_r_star calibrate on the same
    rows, so a battery builds and evaluates them once."""
    cal = _CALIBRATIONS.get(asm)
    if cal is None:
        X = _training_bumps(asm)
        cal = (X, *_evaluate_bumps(asm, X))
        for a in cal:
            a.flags.writeable = False
        _CALIBRATIONS[asm] = cal
    return cal


def _bump_stack(asm, rng):
    """E, F and the F of the central-difference gradient of the training
    bumps and then 6 validation bumps: the training rows are the assembly's
    _calibration, the validation rows one fresh stack."""
    fresh = _evaluate_bumps(asm, _validation_bumps(asm, rng, 6))
    return tuple(np.concatenate([a, b]) for a, b in zip(_calibration(asm)[1:], fresh))


def _prop_gradient_bound(asm, spec, rng):
    if asm.young.q <= asm.kernel.q_star:
        return _skip("needs lower growth above the singularity order")
    E, F, Fg = _bump_stack(asm, rng)
    bound = F + Fg
    C = float(np.max(E[:-6] / bound[:-6]))
    margins = (1.05 * C * bound[-6:] - E[-6:]) / np.maximum(1.0, E[-6:])
    return 6, margins, {"extras": {"constant": C}}


def _prop_interpolation(asm, spec, rng):
    alpha = asm.kernel.power_order
    if alpha is None:
        return _skip("needs a fractional kernel")
    if asm.young.q <= alpha:
        return _skip("needs lower growth above the kernel order")
    p, q = asm.young.p, asm.young.q
    E, F, Fg = _bump_stack(asm, rng)
    # Python floats: their pow is libm's, which numpy's array power may not be
    shape = np.array([f * min((fg / f) ** (alpha / p), (fg / f) ** (alpha / q))
                      for f, fg in zip(F.tolist(), Fg.tolist())])
    C = float(np.max(E[:-6] / shape[:-6]))
    margins = (1.05 * C * shape[-6:] - E[-6:]) / np.maximum(1.0, E[-6:])
    return 6, margins, {"extras": {"constant": C}}


def _psi_r_norms(asm, X, r):
    """The L^r norm of psi(u) for each row u of the stack X; the root is
    libm's pow on each float."""
    sums = np.sum(asm.young.value(X) ** r, axis=-1) * asm.h_pow_dim
    return np.array([s ** (1.0 / r) for s in sums.tolist()])


def _sobolev(asm, spec, r, r_star):
    """The embedding check at exponent r, for the critical exponent r_star,
    as a runner's row.  At most r_star the margins are those of the held-out
    functions against 1.05 times the calibrated constant, and the probe
    ratios are reported; above it the one margin is the growth of the probe
    ratio over three dyadic rescalings."""
    rng = np.random.default_rng([spec.seed, 777])
    # dyadic shrinking bumps around the domain center
    base_radius = 0.8 * asm.grid.inradius
    X = np.array([bump_values(asm.grid, asm.grid.center, base_radius * s, 1.0)
                  for s in (1.0, 0.5, 0.25)])
    if r <= r_star:
        # the probes, then the training and the test functions; the training
        # bumps and their E are the assembly's _calibration, put in after
        # the pair pass of the rest
        T, E_T = _calibration(asm)[:2]
        X = np.concatenate([X, _stack(asm, spec, rng, ["random"] * 10),
                            _validation_bumps(asm, rng, 6),
                            _stack(asm, spec, rng, ["random"] * 4)])
        X, E = np.insert(X, 3, T, axis=0), np.insert(_pair_pass(asm, X, grad=False), 3, E_T)
    else:
        E = _pair_pass(asm, X, grad=False)
    norms = _psi_r_norms(asm, X, r)
    ratios = (norms[:3] / E[:3]).tolist()
    if r > r_star:
        return 3, [(ratios[2] - ratios[0]) / ratios[0]], {
            "note": f"sharpness probe above r*={r_star:.4g}", "extras": {"ratios": ratios, "r": r}}
    C = float(np.max(norms[3:-10] / E[3:-10]))
    lhs = norms[-10:]
    margins = (1.05 * C * E[-10:] - lhs) / np.maximum(1.0, lhs)
    return 10, margins, {"extras": {"constant": C, "probe_ratios": ratios, "r": r}}


def sobolev_embedding_check(asm: EnergyAssembly, r: float, spec: CorpusSpec,
                            digest: Optional[str] = None,
                            tol: float = 0.0) -> PropertyResult:
    """Calibrate/validate the embedding norm bound at exponent r, with
    shrinking-bump sharpness probes.

    For r at most the critical exponent the held-out functions must respect
    1.05 times the calibrated constant, and the probe ratios are reported;
    above it the probe ratio must grow monotonically over three dyadic
    rescalings.
    """
    alpha, N = asm.kernel.alpha_order, asm.grid.dim
    if alpha is None or alpha >= N:
        row = _skip("condition (alpha) fails" if alpha is None else "needs alpha < N")
    else:
        row = _sobolev(asm, spec, r, N / (N - alpha))
    result = _score("sobolev_r_star", digest or config_digest(asm, spec.seed), tol, *row)
    if "ratios" in result.extras:  # above r*: fails unless the ratios grow
        ratios = result.extras["ratios"]
        result.failures = int(not ratios[0] < ratios[1] < ratios[2])
    return result


def _prop_sobolev_r_star(asm, spec, rng):
    alpha, N = asm.kernel.alpha_order, asm.grid.dim
    if alpha is None or alpha >= N:
        return _skip("condition (alpha) fails")
    return _sobolev(asm, spec, N / (N - alpha), N / (N - alpha))


def _prop_pohozaev(asm, spec, rng):
    if not asm.young.homogeneous:
        return _skip("needs a pure-power nonlinearity")
    m = asm.young.p - 0.3
    if m <= 1.0:
        return _skip("no admissible sublinear exponent")
    # for a power reaction the ratio sum u f(u) / ((N p / (N - delta)) sum G(u))
    # is m (N - delta) / (N p) for every u >= 0 with a positive entry, so a
    # seeded nonnegative function checks it as well as a computed solution
    u = GridFunction(asm.grid, _corpus(asm, spec, "nonnegative", rng))
    check = pohozaev_check(asm, power_reaction(m), u)
    if not check.applicable:
        return _skip(check.note)
    N, p = asm.grid.dim, asm.young.p
    analytic = m * (N - check.delta) / (N * p)
    # the relative deviation from the analytic ratio (0 - |dev|, so that a
    # zero deviation is +0), and the ratio's distance below 1
    margins = [0.0 - abs(check.ratio - analytic) / analytic, 1.0 - check.ratio]
    return 1, margins, {"extras": {"ratio": check.ratio, "analytic": analytic,
                                   "delta": check.delta}}


#: every inequality of the calculus appears exactly once in this table, in
#: manifest order: its name, its runner and its default tolerance
_BATTERY = (
    ("equiv_Ee", _prop_equiv_ee, 1e-9),
    ("young_inequality", _prop_young_inequality, 1e-8),
    ("luxemburg_sandwich", _prop_luxemburg_sandwich, 1e-8),
    ("poincare", _prop_poincare, 1e-9),
    ("kato_pointwise", _prop_kato_pointwise, 1e-9),
    ("kato_integral", _prop_kato_integral, 1e-9),
    ("kato_simple", _prop_kato_simple, 1e-9),
    ("stroock_varopoulos", _prop_stroock_varopoulos, 1e-9),
    ("sv_power", _prop_sv_power, 1e-9),
    ("clarkson1", _prop_clarkson1, 1e-9),
    ("clarkson3", _prop_clarkson3, 1e-9),
    ("symmetrization", _prop_symmetrization, 1e-8),
    ("gradient_bound", _prop_gradient_bound, 0.0),
    ("interpolation", _prop_interpolation, 0.0),
    ("sobolev_r_star", _prop_sobolev_r_star, 0.0),
    ("pohozaev", _prop_pohozaev, 1e-9),
)
BATTERY_MANIFEST = tuple(name for name, _, _ in _BATTERY)
DEFAULT_TOLERANCES = {name: tol for name, _, tol in _BATTERY}
_PROPERTY_RUNNERS = {name: runner for name, runner, _ in _BATTERY}


def run_battery(asm: EnergyAssembly, spec: Optional[CorpusSpec] = None,
                tolerances: Optional[dict] = None) -> list[PropertyResult]:
    """Run every named property against seeded corpora and score its margins.

    The rng of each property is seeded by the spec's seed and the property's
    manifest position.  Individual property errors are captured in their
    result rows; the battery itself never aborts.  Deterministic for a fixed
    seed.
    """
    spec = spec or CorpusSpec()
    tols = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    digest = config_digest(asm, spec.seed)
    results = []
    for idx, name in enumerate(BATTERY_MANIFEST):
        rng = np.random.default_rng([spec.seed, idx])
        try:
            row = _PROPERTY_RUNNERS[name](asm, spec, rng)
            results.append(_score(name, digest, tols[name], *row))
        except Exception as exc:  # never abort the battery
            results.append(
                PropertyResult(
                    name=name, trials=0, failures=1, worst_margin=float("-inf"),
                    config_digest=digest, tolerance=tols[name],
                    note=f"error: {type(exc).__name__}: {exc}",
                )
            )
    return results


BATTERY_CSV_HEADER = "property,trials,failures,worst_margin,config_digest"


def battery_csv(results: list[PropertyResult]) -> str:
    lines = [BATTERY_CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.name},{r.trials},{r.failures},{r.worst_margin:.17g},{r.config_digest}"
        )
    return "\n".join(lines) + "\n"

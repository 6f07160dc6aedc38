"""Group-cocycle generators, the classical Monte Carlo cross-check, and
machine-readable report batteries.

Generators of *-homomorphic cocycles on a group algebra are in bijection
with triples (lambda, xi, U): a unitary representation U on the noise space,
a U-1-cocycle xi and a real phase part lambda, assembled into the block map

    psi_g = [[i lambda_g - ||xi_g||^2 / 2,  -<xi_g| U_g],
             [|xi_g>,                        U_g - I   ]].

On a finite group every such cocycle is a coboundary, xi_g = U_g eta - eta,
and :func:`solve_coboundary` recovers eta by least squares.

The Monte Carlo oracle samples the compound Poisson law on a finite group
(Poisson number of iid jumps) with a counter-based RNG, so runs are exactly
reproducible from the 64-bit seed recorded in every report.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .algebra import build_group_algebra, validate_bialgebra
from .cocycle import Generator, StepFunction, check_cocycle_identity, delta_qs
from .convolution import ConvolutionSemigroup, OperatorMap, functional
from .derivations import DerivationProblem, inner_derivation, solve_inner
from .generators import check_structure_map, gns_construct, make_structure_map
from .linalg import (INPUT_TOL, SOLVE_TOL, SPECTRAL_TOL, STRUCT_TOL, bordered,
                     dagger, maxabs, solve_commutation)


# -- group cocycle data ----------------------------------------------------------

@dataclass
class GroupCocycleData:
    """(table, U, xi, lambda) describing psi_g on a finite group."""

    table: np.ndarray        # group Cayley table, identity index 0
    unitaries: np.ndarray    # (|G|, d_noise, d_noise)
    xi: np.ndarray           # (|G|, d_noise)
    lam: np.ndarray          # (|G|,) real

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=int)
        self.unitaries = np.asarray(self.unitaries, dtype=complex)
        self.xi = np.asarray(self.xi, dtype=complex)
        self.lam = np.asarray(self.lam, dtype=float)

    @property
    def order(self):
        return self.table.shape[0]

    @property
    def d_noise(self):
        return self.unitaries.shape[1]

    def residuals(self):
        t, u, xi, lam = self.table, self.unitaries, self.xi, self.lam
        eye = np.eye(self.d_noise)
        u_xi = u[:, None] @ xi[None, :, :, None]           # U_g xi_h at [g, h]
        return {
            "unitary": maxabs(u @ dagger(u) - eye[None, :, :]),
            "representation": maxabs(u[t] - u[:, None] @ u[None]),
            "xi_cocycle": maxabs(xi[t] - xi[:, None] - u_xi[..., 0]),
            "lambda_relation": maxabs(lam[t] - lam[:, None] - lam[None]
                                      + (xi.conj()[:, None, None] @ u_xi)[..., 0, 0].imag),
        }

    def validate(self):
        res = self.residuals()
        bad = {k: v for k, v in res.items() if v > SPECTRAL_TOL}
        if bad:
            raise ValueError(f"invalid group cocycle data: {bad}")
        return self


def coboundary_data(table, unitaries, eta):
    """Data built from a vector: xi_g = U_g eta - eta, lambda_g = Im<eta, U_g eta>."""
    unitaries = np.asarray(unitaries, dtype=complex)
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    xi = np.einsum("gab,b->ga", unitaries, eta) - eta[None, :]
    lam = np.array([np.vdot(eta, unitaries[g] @ eta).imag
                    for g in range(len(unitaries))])
    return GroupCocycleData(table, unitaries, xi, lam)


def psi_blocks(data):
    """The block matrices psi_g of the corresponding generator."""
    xi, u = data.xi, data.unitaries
    row = xi.conj()[:, None, :]
    return bordered(1j * data.lam - 0.5 * (row @ xi[:, :, None])[:, 0, 0].real,
                    (-row @ u)[:, 0], xi, u - np.eye(data.d_noise))


def group_relation_residuals(psi, table):
    """Residuals of psi_{gh} = psi_g + psi_h + psi_g Delta_QS psi_h,
    psi_g^dag = psi_{g^{-1}}, psi_e = 0."""
    dqs = delta_qs(psi.shape[1])
    table = np.asarray(table)
    inv = np.argmax(table == 0, axis=1)
    mult = psi[table] - psi[:, None] - psi[None] - psi[:, None] @ dqs @ psi[None]
    return {"multiplicative": maxabs(mult), "adjoint": maxabs(dagger(psi) - psi[inv]),
            "at_identity": maxabs(psi[0])}


def build_group_generator(data, algebra=None):
    """The stochastic generator phi(L_g) = psi_g on the group bialgebra.

    Validates the cocycle data, which is the group relations of psi in data
    form: U is a unitary representation (so psi_e = 0 and psi is adjoint),
    xi is a U-cocycle and lambda meets its relation (the corner's imaginary
    part); the corner's real part and the top row follow from unitarity."""
    data.validate()
    if algebra is None:
        algebra = build_group_algebra(data.table)
    return Generator(algebra, psi_blocks(data))


def solve_coboundary(data, tol=INPUT_TOL):
    """Least-squares eta with xi_g = U_g eta - eta and lambda_g = Im<eta, U_g eta>.

    Returns (eta, residuals); eta is None when no vector satisfies both
    conditions within ``tol`` (the residuals still report the best fit).
    """
    eta = solve_commutation(data.unitaries, np.ones((data.order, 1, 1)),
                            data.xi[:, :, None])[0][:, 0]
    fit = coboundary_data(data.table, data.unitaries, eta)
    residuals = {"xi": maxabs(fit.xi - data.xi), "lambda": maxabs(fit.lam - data.lam)}
    if max(residuals.values()) > tol:
        return None, residuals
    return eta, residuals


# -- compound Poisson Monte Carlo -------------------------------------------------

def _inverse_cdf(cdf, u):
    """The index of each draw in ``u`` under the nondecreasing CDF ``cdf``:
    the number of CDF values below it, with a draw above the last value
    taking the last index; equal to ``np.searchsorted(cdf[:-1], u)``.  The
    CDF values below every draw are counted once; only those between
    ``u.min()`` and ``u.max()`` take a comparison pass over ``u``."""
    edges = cdf[:-1]
    dtype = np.min_scalar_type(cdf.size)
    if not u.size:
        return np.zeros(0, dtype)
    below, top = np.searchsorted(edges, (u.min(), u.max()))
    k = np.full(u.shape, below, dtype)
    for c in edges[below:top]:
        k += u > c
    return k


def _poisson_counts(rng, rate_t, size):
    """Poisson sampling by inversion of the exact CDF, tabulated in log space
    with ``math.lgamma`` on a +-40 sigma window (outside it the mass is
    under 1e-300); a draw at or above the last tabulated value takes the
    window's last count.  Every call draws exactly one uniform block, also
    at rate_t = 0, so runs stay reproducible.  While the window starts at 0
    (rate_t below ~1602) the counts keep ``_inverse_cdf``'s dtype, the
    smallest unsigned type that holds the window size: one byte up to
    rate_t ~ 23, and at rate_t = 0.  A window above 0 gives int64."""
    if rate_t < 0 or not math.isfinite(rate_t):
        raise ValueError("rate * t must be finite and nonnegative")
    u = rng.random(size)
    if rate_t == 0:
        return np.zeros(size, dtype=np.uint8)
    lo = max(0, int(rate_t - 40.0 * np.sqrt(rate_t)))
    k = np.arange(lo, int(rate_t + 40.0 * np.sqrt(rate_t)) + 40)
    log_pmf = k * np.log(rate_t) - rate_t - np.array([math.lgamma(j + 1) for j in k])
    counts = _inverse_cdf(np.cumsum(np.exp(log_pmf)), u)
    return counts if lo == 0 else lo + counts.astype(np.int64)


@dataclass
class MonteCarloResult:
    frequencies: np.ndarray
    standard_errors: np.ndarray
    n_samples: int
    seed: int

    def to_dict(self):
        return {"frequencies": self.frequencies.tolist(),
                "standard_errors": self.standard_errors.tolist(),
                "n_samples": self.n_samples, "seed": self.seed}


def simulate_compound_poisson(table, rate, jump_measure, t, n_samples, seed):
    """Empirical law of X_t = j_1 ... j_N on the group, N ~ Poisson(rate t),
    jumps iid from ``jump_measure``.

    Draw order: one uniform block for the counts, then one block per round
    r = 1, 2, ..., over the samples with at least r jumps, in index order.
    The frontier is the still-jumping samples' counts and group states,
    compressed together after each round; a sample leaves it at its last
    jump, into a histogram of finished samples.  The counts stay one byte
    wide at the usual rates and the states take the smallest dtype that
    holds a Cayley-table index, so no n_samples-long int64 array is made,
    memory is O(n_samples) and the work O(n_samples + total jumps)."""
    table = np.asarray(table, dtype=int)
    # the states' narrow dtype would wrap an entry outside 0 .. |G| - 1
    if table.ndim != 2 or table.shape[0] != table.shape[1] \
            or np.any((table < 0) | (table >= len(table))):
        raise ValueError("table must be a square Cayley table on 0 .. |G| - 1")
    mu = np.asarray(jump_measure, dtype=float)
    if mu.ndim != 1 or mu.size != table.shape[0] or np.any(mu < 0) \
            or abs(mu.sum() - 1.0) > STRUCT_TOL:
        raise ValueError("jump measure must be a probability vector on the group")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    counts = _poisson_counts(rng, rate * t, n_samples)
    cdf, order = np.cumsum(mu), table.shape[0]
    # state * order + jump indexes the flattened table
    products = table.ravel().astype(np.min_scalar_type(order * order - 1))
    left = counts.compress(counts > 0)
    state = np.zeros(left.size, products.dtype)
    finished = np.zeros(order, np.int64)
    finished[0] = n_samples - left.size   # no jump: the identity, index 0
    rounds = 0
    while left.size:
        state *= order
        state += _inverse_cdf(cdf, rng.random(left.size))
        state = products.take(state)
        rounds += 1
        going = left > rounds
        finished += np.bincount(state.compress(~going), minlength=order)
        left, state = left.compress(going), state.compress(going)
    freqs = finished / max(1, n_samples)
    ses = np.sqrt(freqs * (1.0 - freqs) / max(1, n_samples))
    return MonteCarloResult(freqs, ses, n_samples, int(seed))


def compound_poisson_law(function_algebra, rate, jump_measure, t):
    """Exact law via the convolution exponential of rate (mu-hat - eps) on
    the function bialgebra: the vector of lambda_t(delta_h)."""
    mu = np.asarray(jump_measure, dtype=complex)
    gamma = functional(function_algebra, rate * (mu - function_algebra.counit))
    return ConvolutionSemigroup(gamma).at(t).as_vector().real


# -- report batteries --------------------------------------------------------------

GNS_T_GRID = (0.25, 0.5, 1.0)   # times at which the gns battery compares semigroups


@dataclass
class RunConfig:
    seed: int = 7
    tol: float = SOLVE_TOL
    n_samples: int = 10000
    out: str = None

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError("sample count must be positive")

    def to_dict(self):
        return {"seed": int(self.seed), "tol": float(self.tol),
                "n_samples": int(self.n_samples),
                "t_grid": list(GNS_T_GRID)}


def _case(name, residual, tol):
    return {"name": name, "residual": float(residual), "tol": float(tol),
            "pass": bool(residual <= tol)}


def _battery_axioms(config):
    cases = []
    for name, b in fixtures.bundled_fixtures().items():
        for r in validate_bialgebra(b):
            cases.append(_case(f"{name}:{r.name}", r.residual, r.tol))
    return cases


def random_generator(rng, src, d_noise, scale=0.4):
    """A generator with iid complex Gaussian entries of the given scale."""
    shape = (src.dim, 1 + d_noise, 1 + d_noise)
    vals = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Generator(src, vals)


def random_step(rng, d_noise, horizon, scale=0.7):
    """A step function on [0, horizon) with 1..3 pieces and complex Gaussian
    values of the given scale."""
    m = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(0.05 * horizon, 0.95 * horizon, size=m - 1))
    bp = np.concatenate([[0.0], cuts, [horizon]])
    vals = scale * (rng.standard_normal((m, d_noise))
                    + 1j * rng.standard_normal((m, d_noise)))
    return StepFunction(bp, vals)


def _battery_cocycle(config):
    rng = np.random.default_rng(config.seed)
    cases = []
    for name, b in fixtures.bundled_fixtures().items():
        for rep in range(10):
            dn = int(rng.integers(1, 3))
            phi = random_generator(rng, b, dn)
            s, t = float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8))
            f = random_step(rng, dn, s + t)
            fp = random_step(rng, dn, s + t)
            res = check_cocycle_identity(phi, s, t, f, fp)
            cases.append(_case(f"{name}:qscc[{rep}]", res, config.tol))
    return cases


def _battery_gns(config):
    rng = np.random.default_rng(config.seed)
    cases = []
    for name, b in fixtures.bundled_fixtures().items():
        if b.kind != "bialgebra":
            continue
        pi = OperatorMap(b, b.rep_images)
        c = rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim)
        phi = make_structure_map(pi, c)
        cases.append(_case(f"{name}:structure",
                           max(check_structure_map(phi).values()), STRUCT_TOL))
        triple, phi2 = gns_construct(phi.lam_block())
        cases.append(_case(f"{name}:triple", triple.max_residual(), SOLVE_TOL))
        sg1 = ConvolutionSemigroup(phi.lam_block())
        sg2 = ConvolutionSemigroup(phi2.lam_block())
        res = max(maxabs(sg1.at(t).as_vector() - sg2.at(t).as_vector())
                  for t in GNS_T_GRID)
        cases.append(_case(f"{name}:vacuum-semigroup", res, SOLVE_TOL))
    return cases


def _battery_derivations(config):
    rng = np.random.default_rng(config.seed)
    cases = []
    for name, b in list(fixtures.bundled_fixtures().items())[:4]:
        pi = OperatorMap(b, b.rep_images)
        for rep in range(5):
            n = b.rep_dim
            t0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            problem = DerivationProblem(pi, pi, inner_derivation(pi, pi, t0))
            _, res = solve_inner(problem)
            cases.append(_case(f"{name}:inner[{rep}]", res, SOLVE_TOL))
    return cases


def _battery_montecarlo(config):
    cases = []
    for n in (2, 3, 4):
        table = fixtures.cyclic_table(n)
        b = fixtures.fixture(f"C(Z{n})")
        rng = np.random.default_rng(config.seed + n)
        mu = rng.uniform(0.1, 1.0, size=n)
        mu /= mu.sum()
        rate, t = 1.5, 0.8
        mc = simulate_compound_poisson(table, rate, mu, t, config.n_samples,
                                       config.seed + n)
        law = compound_poisson_law(b, rate, mu, t)
        worst = max((abs(mc.frequencies[h] - law[h])
                     / max(mc.standard_errors[h], 1e-12)) for h in range(n))
        tv = 0.5 * float(np.sum(np.abs(mc.frequencies - law)))
        cases.append(_case(f"C(Z{n}):pointwise-sigmas", worst, 3.0))
        cases.append(_case(f"C(Z{n}):total-variation", tv,
                           3.0 * float(mc.standard_errors.max())))
    return cases


BATTERIES = {
    "axioms": _battery_axioms,
    "cocycle": _battery_cocycle,
    "gns": _battery_gns,
    "derivations": _battery_derivations,
    "montecarlo": _battery_montecarlo,
}


def run_report(config, suite="axioms"):
    """Run a named battery and return the report dict (optionally written to
    ``config.out``).  Reports are deterministic functions of the seed."""
    if suite == "all":
        names = list(BATTERIES)
    elif suite in BATTERIES:
        names = [suite]
    else:
        raise ValueError(f"unknown battery {suite!r}; have {sorted(BATTERIES)} or 'all'")
    batteries = {}
    for name in names:
        batteries[name] = BATTERIES[name](config)
    all_cases = [c for cases in batteries.values() for c in cases]
    report = {
        "suite": suite,
        "config": config.to_dict(),
        "batteries": batteries,
        "n_cases": len(all_cases),
        "n_failures": sum(not c["pass"] for c in all_cases),
        "all_pass": all(c["pass"] for c in all_cases),
    }
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return report

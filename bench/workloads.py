"""Seeded op pools for the qlevy benchmark, and the traced run's scaling sweeps.

An op is one user-level operation.  ``Op.run(tracer)`` is the timed part and
calls qlevy only through its public functions, with a span around each call;
``Op.check(result, tracer)`` verifies the output outside the timed region and
returns whether it is correct.

Every pool is stratified: each seed gives the same mix of op kinds, fixtures
and sizes, and only the random data inside the inputs changes.  That keeps
the run-to-run spread of the end-to-end metrics down to the machine's own
noise, while the inputs still differ from seed to seed.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys
from typing import Callable

import numpy as np

from qlevy import cli, fixtures
from qlevy.algebra import (AxiomViolation, Bialgebra, assert_valid,
                           build_function_algebra, build_group_algebra,
                           class_hypergroup_algebra, load_bialgebra,
                           validate_bialgebra)
from qlevy.cocycle import (Generator, StepFunction, check_cocycle_identity,
                           matrix_element, refine_pair, simplex_series_oracle)
from qlevy.convolution import (ConvolutionSemigroup, OperatorMap,
                               amplified_norm, convolve, functional)
from qlevy.derivations import (DerivationProblem, implement_chi_structure,
                               implemented_chi_structure, inner_derivation,
                               solve_inner)
from qlevy.generators import (CPQuadruple, canonical_phi1, gns_construct,
                              intertwine_minimal, make_structure_map)
from qlevy.harness import (RunConfig, build_group_generator, coboundary_data,
                           compound_poisson_law, run_report,
                           simulate_compound_poisson, solve_coboundary)

from tracing import BATTERIES

IDENTITY_TOL = 1e-9   # increment-identity residual relative to max(1, |value|)
ORACLE_SLACK = 1e-9   # rounding allowance beyond the oracle's tail bound,
                      # the same as the acceptance gate's
MC_SIGMAS = 6.0       # Monte Carlo frequencies against the exact law; 6 sigma
                      # so that a correct sampler essentially never fails


@dataclasses.dataclass
class Op:
    kind: str
    run: Callable
    check: Callable
    pieces: int = 0   # common-refinement pieces of the long cocycle pair


def cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def maxabs(a):
    # the checks keep their own helpers rather than qlevy's, so that they
    # stay independent of the code they check
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def random_generator(rng, b, d_noise, scale):
    return Generator(b, scale * cnormal(rng, b.dim, 1 + d_noise, 1 + d_noise))


def step_pair(rng, d_noise, horizon, pieces, scale=0.7):
    """Two step functions on [0, horizon) whose common refinement has exactly
    ``pieces`` pieces: pieces - 1 distinct cuts, each given to f or to f'."""
    while True:
        cuts = np.sort(rng.uniform(0.0, horizon, size=pieces - 1))
        side = rng.random(pieces - 1) < 0.5
        pair = []
        for c in (cuts[side], cuts[~side]):
            bp = np.concatenate(([0.0], c, [horizon]))
            pair.append(StepFunction(bp, scale * cnormal(rng, bp.size - 1, d_noise)))
        if len(refine_pair(pair[0], pair[1], horizon)) == pieces:
            return pair


def permuted(rng, b):
    """The same bialgebra in a randomly reordered basis."""
    p = rng.permutation(b.dim)
    return dataclasses.replace(
        b, basis_labels=tuple(b.basis_labels[i] for i in p),
        unit=b.unit[p], mult=b.mult[np.ix_(p, p, p)],
        star_matrix=b.star_matrix[np.ix_(p, p)], counit=b.counit[p],
        coproduct=b.coproduct[np.ix_(p, p, p)], rep_images=b.rep_images[p])


def rep_of(b):
    return OperatorMap(b, b.rep_images)


# -- cocycle_long ---------------------------------------------------------------

COCYCLE_FIXTURES = ("Alg(S3)", "C(S3)", "Alg(Z6)", "Hyper(S3-classes)")
COCYCLE_OPS_PER_FIXTURE = 30      # ops 0, 10 and 20 of each also run the oracle
COCYCLE_PIECES = (32, 256)        # drawn log-uniform, stratified


def cocycle_pool(seed, fx, workdir):
    rng = np.random.default_rng([seed, 1])
    n = COCYCLE_OPS_PER_FIXTURE
    lo, hi = COCYCLE_PIECES
    ops = []
    for name in COCYCLE_FIXTURES:
        u = (np.arange(n) + rng.random(n)) / n
        counts = np.rint(np.exp(np.log(lo) + u * np.log(hi / lo))).astype(int)
        for j, pieces in enumerate(counts):
            # d_noise cycles through 1..3 along the piece strata, so every
            # seed gives the same mix of sizes
            ops.append(_cocycle_op(rng, fx[name], int(pieces), j % 3 + 1, j % 10 == 0))
    rng.shuffle(ops)
    return ops


def _cocycle_op(rng, b, pieces, d_noise, with_oracle):
    phi = random_generator(rng, b, d_noise, 0.4)
    horizon = float(rng.uniform(0.5, 1.5))
    f, fp = step_pair(rng, d_noise, horizon, pieces)
    x = b.element(cnormal(rng, b.dim))
    split = float(rng.uniform(0.05, 0.95)) * horizon
    short = None
    if with_oracle:
        t_s = float(rng.uniform(0.3, 1.0))
        k = int(rng.integers(1, 5))
        short = (random_generator(rng, b, d_noise, 0.3), t_s, k,
                 *step_pair(rng, d_noise, t_s, k))

    def run(tr):
        with tr.span("cocycle.matrix_element", pieces=pieces):
            value = matrix_element(phi, x, f, fp, horizon)
        with tr.span("cocycle.check_cocycle_identity", pieces=pieces):
            residual = check_cocycle_identity(phi, split, horizon - split, f, fp)
        if short is None:
            return value, residual, None
        phi_s, t_s, k, fs, fps = short
        with tr.span("cocycle.matrix_element", pieces=k):
            exact = matrix_element(phi_s, x, fs, fps, t_s)
        with tr.span("cocycle.simplex_series_oracle", pieces=k, n_max=16):
            approx, tail = simplex_series_oracle(phi_s, x, fs, fps, t_s, 16)
        return value, residual, (exact, approx, tail)

    def check(result, tr):
        value, residual, oracle = result
        margin = residual / max(1.0, abs(value)) / IDENTITY_TOL
        tr.gauge("cocycle.identity_margin", margin)
        ok = bool(np.isfinite(value)) and margin <= 1.0
        if oracle is not None:
            exact, approx, tail = oracle
            gap = abs(approx - exact) / (tail + ORACLE_SLACK * max(1.0, abs(exact)))
            tr.gauge("cocycle.oracle_margin", gap)
            ok = ok and bool(np.isfinite(exact)) and gap <= 1.0
        return ok

    return Op("cocycle", run, check, pieces)


# -- validate_scale --------------------------------------------------------------

def product_table(n1, n2):
    """Z_n1 x Z_n2, element (a, b) at index a * n2 + b."""
    idx = [(a, b) for a in range(n1) for b in range(n2)]
    return np.array([[((a + c) % n1) * n2 + (b + e) % n2 for c, e in idx]
                     for a, b in idx])


def max_monoid(n):
    return np.array([[max(i, j) for j in range(n)] for i in range(n)])


GROUP_TABLES = {
    **{f"Z{n}": fixtures.cyclic_table(n) for n in range(3, 9)},
    "Z2xZ2": product_table(2, 2), "Z2xZ4": product_table(2, 4),
    "S3": fixtures.s3_table(), "D4": fixtures.d4_table(),
}
MONOID_TABLES = {f"max{n}": max_monoid(n) for n in range(3, 9)}
PERTURBED_FIXTURES = ("C(Z4)", "Alg(Z6)", "C(S3)", "Hyper(S3-classes)")
POOL_COPIES = 2   # each input family twice, with its own random data, so that
                  # a pool has over 100 ops and ten of them lie beyond op_p90_ms
# Order-8 inputs take ~150 ms each, most of a pass, so validate_scale takes
# each once and through the builders named here, not all four twice: every
# builder and the N = 8 Choi check still meet an order-8 input, and the
# shorter pass gives each op enough runs in a run for a steady median.
HEAVY_KINDS = {"Z8": ("group", "hyper"), "Z2xZ4": ("class",),
               "D4": ("function", "class"), "max8": ("function",)}


def relabel(rng, table):
    """The same monoid with its non-identity elements renamed at random."""
    p = np.concatenate(([0], 1 + rng.permutation(len(table) - 1)))
    out = np.empty_like(table)
    out[np.ix_(p, p)] = p[table]
    return out


def validate_pool(seed, fx, workdir):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for copy in range(POOL_COPIES):
        for name, table in GROUP_TABLES.items():
            kinds = HEAVY_KINDS.get(name, ("group", "function", "class", "hyper"))
            if copy and name in HEAVY_KINDS:
                continue
            t = relabel(rng, table)
            if "group" in kinds:
                ops.append(_builder_op("algebra.build_group_algebra",
                                       build_group_algebra, t))
            if "function" in kinds:
                ops.append(_builder_op("algebra.build_function_algebra",
                                       build_function_algebra, t))
            if "class" in kinds:
                ops.append(_builder_op("algebra.class_hypergroup_algebra",
                                       class_hypergroup_algebra, t))
            if "hyper" in kinds:
                hyper = dataclasses.replace(build_group_algebra(t), kind="hyperbialgebra")
                ops.append(_accept_op(hyper))
        for name, table in MONOID_TABLES.items():
            if copy and name in HEAVY_KINDS:
                continue
            ops.append(_builder_op("algebra.build_function_algebra",
                                   build_function_algebra, relabel(rng, table)))
        for i, b in enumerate(fx.values()):
            ops.append(_roundtrip_op(permuted(rng, b),
                                     os.path.join(workdir, f"rt{copy}-{i}.json")))
        for theta in rng.uniform(1.05, 2.0, size=2):
            ops.append(_reject_op(fixtures.two_point_hypergroup(float(theta))))
        for i, name in enumerate(PERTURBED_FIXTURES):
            ops.append(_perturbed_op(rng, permuted(rng, fx[name]),
                                     os.path.join(workdir, f"bad{copy}-{i}.json")))
    rng.shuffle(ops)
    return ops


def _builder_op(span, builder, table):
    def run(tr):
        with tr.span(span, d=len(table)):
            return builder(table)

    def check(b, tr):
        return isinstance(b, Bialgebra) and b.dim <= len(table)

    return Op(span.split(".")[-1], run, check)


def _accept_op(b):
    """A group algebra re-kinded as a hyperbialgebra, so that the Choi-matrix
    check of complete positivity runs with its irreducible blocks."""
    def run(tr):
        with tr.span("algebra.assert_valid", N=b.rep_dim):
            return assert_valid(b)

    def check(out, tr):
        return out is b

    return Op("hyperbialgebra", run, check)


def _roundtrip_op(b, path):
    def run(tr):
        with tr.span("algebra.Bialgebra.save", d=b.dim):
            b.save(path)
        with tr.span("algebra.load_bialgebra", d=b.dim):
            return load_bialgebra(path)

    def check(loaded, tr):
        return loaded.same_structure(b)

    return Op("roundtrip", run, check)


def _rejected(load):
    """Run ``load`` and return the AxiomViolation it raises, else None."""
    try:
        load()
    except AxiomViolation as exc:
        return exc
    return None


def _reject_op(b):
    def run(tr):
        with tr.span("algebra.assert_valid", N=b.rep_dim):
            return _rejected(lambda: assert_valid(b))

    def check(exc, tr):
        return exc is not None and exc.axiom == "coproduct-completely-positive"

    return Op("negative-cp", run, check)


def _perturbed_op(rng, b, path):
    """One entry of the multiplication or coproduct tensor moved by 1e-3..1e-1."""
    data = b.to_dict()
    entries = data[("mult", "coproduct")[int(rng.integers(2))]]
    entry = entries[int(rng.integers(len(entries)))]
    entry["re"] += float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, -1))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)

    def run(tr):
        with tr.span("algebra.load_bialgebra", d=b.dim, control=True):
            return _rejected(lambda: load_bialgebra(path))

    def check(exc, tr):
        return exc is not None

    return Op("negative-perturbed", run, check)


# -- lab_mixed ----------------------------------------------------------------------

# The project's reference report seeds (RunConfig's default and the seed of
# the byte-identical acceptance report).  Not drawn from the workload seed:
# the montecarlo battery tests 10000 samples at 3 sigma with no allowance for
# testing several outcomes, so it fails for a few percent of seeds (11 of
# the seeds 0..399).
REPORT_SEEDS = (7, 42)
LAB_FIXTURES = ("C(Z3)", "Alg(Z4)", "C(Z6)", "Alg(Z6)", "C(S3)", "Alg(S3)")
GROUP_FIXTURES = {"Alg(Z3)": fixtures.cyclic_table(3), "Alg(Z4)": fixtures.cyclic_table(4),
                  "Alg(Z6)": fixtures.cyclic_table(6), "Alg(S3)": fixtures.s3_table()}
MC_ORDERS = (2, 3, 4, 6)
MC_SAMPLES = 100_000
NORM_FIXTURES = ("C(Z3)", "Alg(Z4)", "Hyper(S3-classes)")
NORM_OPS_PER_FIXTURE = 2  # with the heavy reports on top, op_p90_ms falls
                          # inside the amplified_norm cluster
CLI_FIXTURES = ("Alg(S3)", "C(Z6)")
T_GRID = np.linspace(0.0, 2.0, 21)


def lab_pool(seed, fx, workdir):
    rng = np.random.default_rng([seed, 3])
    reports = {}    # (battery, seed) -> JSON text of the first report
    ops = []
    for copy in range(POOL_COPIES):
        ops.extend(_report_op(battery, rseed, reports)
                   for battery in BATTERIES for rseed in REPORT_SEEDS)
        for name in LAB_FIXTURES:
            b = fx[name]
            ops.append(_semigroup_op(rng, b))
            ops.append(_gns_op(rng, b))
            ops.append(_inner_op(rng, b))
            ops.append(_chi_op(rng, b))
            ops.append(_intertwine_op(rng, b))
        for name, table in GROUP_FIXTURES.items():
            ops.append(_group_generator_op(rng, fx[name], table))
        for n in MC_ORDERS:
            ops.append(_montecarlo_op(rng, fx[f"C(Z{n})"], n))
        for name in NORM_FIXTURES:
            ops.extend(_norm_op(rng, fx[name]) for _ in range(NORM_OPS_PER_FIXTURE))
        for i, name in enumerate(CLI_FIXTURES):
            ops.extend(_cli_ops(rng, fx[name], name, workdir, f"{copy}-{i}"))
    rng.shuffle(ops)
    return ops


def structure_functional(rng, b):
    """A real, conditionally positive generator functional vanishing at 1."""
    return make_structure_map(rep_of(b), cnormal(rng, b.rep_dim)).lam_block()


def _report_op(battery, rseed, reports):
    def run(tr):
        with tr.span("harness.run_report", battery=battery):
            return run_report(RunConfig(seed=rseed), battery)

    def check(report, tr):
        text = json.dumps(report, sort_keys=True, indent=1)
        return report["all_pass"] and reports.setdefault((battery, rseed), text) == text

    return Op(f"report-{battery}", run, check)


def _semigroup_op(rng, b):
    gamma = structure_functional(rng, b)

    def run(tr):
        with tr.span("convolution.ConvolutionSemigroup"):
            sg = ConvolutionSemigroup(gamma)
        out = []
        for t in T_GRID:
            with tr.span("convolution.semigroup_at"):
                out.append(sg.at(t))
        return out

    def check(lams, tr):
        # lambda_0 = eps and lambda_{0.5} * lambda_{1.0} = lambda_{1.5}
        scale = max(1.0, max(maxabs(lam.values) for lam in lams))
        law = convolve(lams[5], lams[10]).values - lams[15].values
        return (maxabs(lams[0].as_vector() - b.counit) <= 1e-12
                and maxabs(law) <= 1e-9 * scale)

    return Op("semigroup", run, check)


def _gns_op(rng, b):
    gamma = structure_functional(rng, b)

    def run(tr):
        with tr.span("generators.gns_construct"):
            return gns_construct(gamma)

    def check(out, tr):
        triple, phi = out
        return triple.max_residual() <= 1e-9 and phi.d_noise == triple.n >= 1

    return Op("gns", run, check)


def _inner_op(rng, b):
    pi = rep_of(b)
    t0 = cnormal(rng, pi.p, pi.p)
    problem = DerivationProblem(pi, pi, inner_derivation(pi, pi, t0))

    def run(tr):
        with tr.span("derivations.solve_inner"):
            return solve_inner(problem)

    def check(out, tr):
        t, residual = out
        return residual <= 1e-9 * max(1.0, maxabs(t0)) and np.all(np.isfinite(t))

    return Op("solve_inner", run, check)


def _chi_op(rng, b):
    pi = rep_of(b)
    chi = functional(b, b.counit)
    phi = implemented_chi_structure(pi, chi, cnormal(rng, pi.p))

    def run(tr):
        with tr.span("derivations.implement_chi_structure"):
            return implement_chi_structure(phi, chi)

    def check(out, tr):
        pi2, _, _, residuals = out
        return (residuals["reassembly"] <= 1e-9 * max(1.0, maxabs(phi.values))
                and maxabs(pi2.values - pi.values) <= 1e-10)

    return Op("implement_chi_structure", run, check)


def _intertwine_op(rng, b, d_noise=2):
    rho = rep_of(b)
    k = rho.p
    big_d = cnormal(rng, k, d_noise)
    big_d *= 0.9 / np.linalg.norm(big_d, 2)
    e = rng.standard_normal(d_noise)
    q1 = CPQuadruple(rho, big_d, cnormal(rng, k),
                     canonical_phi1(big_d, e=e, t=-float(e @ e) - 0.3))
    u = np.linalg.qr(cnormal(rng, k, k))[0]
    q2 = CPQuadruple(OperatorMap(b, u @ rho.values @ u.conj().T),
                     u @ q1.big_d, u @ q1.xi, q1.phi1)

    def run(tr):
        with tr.span("generators.intertwine_minimal"):
            return intertwine_minimal(q1, q2)

    def check(out, tr):
        v, info = out
        return maxabs(v - u) <= 1e-8 and info["isometry_defect"] <= 1e-9

    return Op("intertwine_minimal", run, check)


def _group_generator_op(rng, b, table):
    """Coboundary data U_g eta - eta for a randomly rotated faithful unitary
    representation of the group; the op builds the generator and solves
    back for eta."""
    w = np.linalg.qr(cnormal(rng, b.rep_dim, b.rep_dim))[0]
    data = coboundary_data(table, w @ b.rep_images @ w.conj().T, cnormal(rng, b.rep_dim))

    def run(tr):
        with tr.span("harness.build_group_generator"):
            gen = build_group_generator(data, algebra=b)
        with tr.span("harness.solve_coboundary"):
            eta, residuals = solve_coboundary(data)
        return gen, eta, residuals

    def check(out, tr):
        gen, eta, residuals = out
        return (eta is not None and max(residuals.values()) <= 1e-8
                and bool(np.all(np.isfinite(gen.values))))

    return Op("group_generator", run, check)


def _montecarlo_op(rng, b, n):
    mu = rng.uniform(0.1, 1.0, size=n)
    mu /= mu.sum()
    rate, t = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.5))
    mc_seed = int(rng.integers(2 ** 62))
    table = fixtures.cyclic_table(n)

    def run(tr):
        with tr.span("harness.simulate_compound_poisson", samples=MC_SAMPLES):
            return simulate_compound_poisson(table, rate, mu, t, MC_SAMPLES, mc_seed)

    def check(mc, tr):
        law = compound_poisson_law(b, rate, mu, t)
        se = np.maximum(mc.standard_errors, 1.0 / MC_SAMPLES)
        return bool(np.all(np.abs(mc.frequencies - law) <= MC_SIGMAS * se))

    return Op("montecarlo", run, check)


def _norm_op(rng, b, n=2):
    phi = OperatorMap(b, cnormal(rng, b.dim, 2, 2))
    norm_seed = int(rng.integers(2 ** 31))

    def run(tr):
        with tr.span("convolution.amplified_norm", n=n):
            return amplified_norm(phi, n, n_starts=4, n_iters=75, seed=norm_seed,
                                  return_point=True)

    def check(out, tr):
        # the estimate must be the ratio actually reached at the returned point
        value, c = out
        num = np.einsum("kab,kcd->acbd", phi.values, c).reshape(phi.p * n, phi.q * n)
        den = np.einsum("kab,kcd->acbd", b.rep_images, c).reshape(b.rep_dim * n, -1)
        ratio = np.linalg.norm(num, 2) / np.linalg.norm(den, 2)
        return value > 0 and abs(ratio - value) <= 1e-9 * value

    return Op("amplified_norm", run, check)


def _steps_spec(f):
    """A step function in the CLI's 't1:c1,t2:c2,...' syntax."""
    return ",".join(f"{float(t)!r}:" + json.dumps([[z.real, z.imag] for z in c])
                    for t, c in zip(f.breakpoints[1:], f.values))


def _cli_ops(rng, b, name, workdir, i):
    """validate, semigroup and cocycle-eval on files written here."""
    alg_path = os.path.join(workdir, f"cli{i}-algebra.json")
    permuted(rng, b).save(alg_path)
    gamma_path = os.path.join(workdir, f"cli{i}-gamma.json")
    structure_functional(rng, b).save(gamma_path)
    d_noise = int(rng.integers(1, 3))
    gen_path = os.path.join(workdir, f"cli{i}-generator.json")
    random_generator(rng, b, d_noise, 0.4).save(gen_path)
    t = float(rng.uniform(0.5, 1.5))
    f, fp = step_pair(rng, d_noise, t, int(rng.integers(1, 4)))
    label = b.basis_labels[int(rng.integers(b.dim))]
    return [
        _cli_op(["validate", alg_path]),
        _cli_op(["semigroup", f"fixture:{name}", gamma_path, "--t-grid", "0:2:21",
                 "--format", "json"]),
        _cli_op(["cocycle-eval", f"fixture:{name}", gen_path, "--x", label,
                 "--f", _steps_spec(f), "--fp", _steps_spec(fp), "--t", repr(t)]),
    ]


def _cli_op(argv):
    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span("cli.main", verb=argv[0]):
                code = cli.main(argv)
        return code, err.getvalue()

    def check(out, tr):
        code, err = out
        if code != 0:
            print(f"qlevy {argv[0]} exited {code}: {err.strip()}", file=sys.stderr)
        return code == 0

    return Op(f"cli-{argv[0]}", run, check)


POOLS = {"cocycle_long": cocycle_pool, "validate_scale": validate_pool,
         "lab_mixed": lab_pool}


# -- scaling sweeps (traced run only) -------------------------------------------------

SWEEP_REPEATS = 3
SWEEP_D = range(4, 9)
SWEEP_PIECES = (16, 32, 64, 128, 256, 512)
SWEEP_NMAX = (4, 8, 16)


def sweeps(tr, fx, seed):
    """Time the layers against the sizes that drive them, with spans tagged
    by the swept size: validation against d and the hyperbialgebra Choi check
    against N (Z_n group algebras, d = N = n), matrix_element against the
    piece count and the simplex oracle against n_max."""
    rng = np.random.default_rng([seed, 4])
    for n in SWEEP_D:
        b = build_group_algebra(fixtures.cyclic_table(n))
        hyper = dataclasses.replace(b, kind="hyperbialgebra")
        for alg, axis, size in ((b, "d", b.dim), (hyper, "N", hyper.rep_dim)):
            for _ in range(SWEEP_REPEATS):
                with tr.span("algebra.validate_bialgebra", sweep=axis, size=size):
                    results = validate_bialgebra(alg)
                if not all(r.passed for r in results):
                    raise RuntimeError(f"sweep input Z{n} ({alg.kind}) failed validation")
    b = fx["Alg(S3)"]
    phi = random_generator(rng, b, 2, 0.4)
    x = b.element(cnormal(rng, b.dim))
    for pieces in SWEEP_PIECES:
        f, fp = step_pair(rng, 2, 1.0, pieces)
        for _ in range(SWEEP_REPEATS):
            with tr.span("cocycle.matrix_element", sweep="pieces", size=pieces):
                value = matrix_element(phi, x, f, fp, 1.0)
            if not np.isfinite(value):
                raise RuntimeError(f"non-finite matrix element at {pieces} pieces")
    phi = random_generator(rng, b, 2, 0.3)
    f, fp = step_pair(rng, 2, 0.8, 4)
    for n_max in SWEEP_NMAX:
        for _ in range(SWEEP_REPEATS):
            with tr.span("cocycle.simplex_series_oracle", sweep="n_max", size=n_max):
                simplex_series_oracle(phi, x, f, fp, 0.8, n_max)


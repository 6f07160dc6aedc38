"""Command-line surface.

Verbs: validate, semigroup, cocycle-eval, gns, classify, derivation solve,
chi-structure implement, group-gen, coboundary, montecarlo, report.
Exit codes: 0 all checks pass, 1 any check fails, 2 usage error.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import fixtures
from .algebra import (ParseError, _decode, _encode, _parse_file,
                      bialgebra_and_rep2, build_function_algebra,
                      load_bialgebra, validate_bialgebra)
from .cocycle import (HORIZON_SLACK, Generator, StepFunction, matrix_element,
                      check_cocycle_identity, refine, simplex_series_within)
from .convolution import (ConvolutionSemigroup, OperatorMap, functional,
                          load_operator_map)
from .derivations import DerivationProblem, implement_chi_structure, solve_inner
from .generators import (check_phi1, check_structure_map, gns_construct,
                         check_conditionally_positive)
from .harness import (BATTERIES, GroupCocycleData, RunConfig, build_group_generator,
                      compound_poisson_law, group_relation_residuals,
                      run_report, simulate_compound_poisson, solve_coboundary)
from .linalg import INPUT_TOL, SOLVE_TOL, SPECTRAL_TOL, STRUCT_TOL

ORACLE_ORDERS = (4, 8, 16, 32, 64)   # cocycle-eval's simplex-oracle orders


class UsageError(Exception):
    """A well-formed argument that does not fit the other inputs (exit 2)."""


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=1, sort_keys=True))


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_algebra(path):
    """The bialgebra of a file, or the bundled fixture of 'fixture:<name>'."""
    if not path.startswith("fixture:"):
        return load_bialgebra(path)
    try:
        return fixtures.fixture(path.split(":", 1)[1])
    except KeyError:
        raise UsageError(f"unknown fixture {path!r}; bundled fixtures: "
                         + ", ".join(sorted(fixtures.bundled_fixtures()))) from None


def _split_top_level(text):
    """Split on commas not nested inside brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_vector(token):
    """A complex vector given as JSON [[re,im],...] or base64 of the same."""
    token = token.strip()
    if not token.startswith("["):
        import base64
        token = base64.b64decode(token).decode()
    data = json.loads(token)
    return _decode(data, 1)


def parse_steps(spec_text):
    """Step function from 't1:c1,t2:c2,...'; each c is inline JSON or base64."""
    bps = [0.0]
    vals = []
    for piece in _split_top_level(spec_text):
        if not piece:
            continue
        t_str, c_str = piece.split(":", 1)
        bps.append(float(t_str))
        vals.append(_parse_vector(c_str))
    arr = np.stack(vals) if vals else np.zeros((0, 1))
    return StepFunction(np.array(bps), arr)


def _arg(parse, what):
    """argparse type from parse(text); text that parse cannot read is a usage
    error saying that ``what`` was expected."""
    def convert(text):
        try:
            return parse(text)
        except (ValueError, TypeError, IndexError, KeyError) as exc:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r} ({exc})") from None
    return convert


def _t_grid(text):
    """An evenly spaced time grid from 'start:stop:count'."""
    a, b, n = text.split(":")
    start, stop, count = float(a), float(b), int(n)
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError("start and stop must be finite")
    return np.linspace(start, stop, count)


def _number(kind, holds):
    """Parse one number of the given kind for which ``holds`` is true."""
    def parse(text):
        value = kind(text)
        if not holds(value):
            raise ValueError("out of range")
        return value
    return parse


def _real_vector(text):
    vec = np.array(json.loads(text), dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"a JSON array of rank {vec.ndim}")
    return vec


steps_arg = _arg(lambda text: parse_steps(text) if text else None,
                 "t1:c1,t2:c2,... with each c a JSON list of [re, im] pairs "
                 "or its base64")
element_arg = _arg(lambda text: _parse_vector(text) if text.startswith("[") else text,
                   "a basis label or a JSON list of [re, im] pairs")
t_grid_arg = _arg(_t_grid, "start:stop:count")
positive_int_arg = _arg(_number(int, lambda v: 0 < v < 2 ** 64), "an integer >= 1")
positive_float_arg = _arg(_number(float, lambda v: 0 < v < np.inf), "a finite number > 0")
nonnegative_float_arg = _arg(_number(float, lambda v: 0 <= v < np.inf),
                             "a finite number >= 0")
seed_arg = _arg(_number(int, lambda v: 0 <= v < 2 ** 64), "an integer in [0, 2**64)")
real_vector_arg = _arg(_real_vector, "a flat JSON list of numbers")


def _load_group_data(path):
    return _parse_file(path, "group cocycle", lambda raw: GroupCocycleData(
        np.array(raw["table"], dtype=int),
        _decode(raw["U"], 3),
        _decode(raw["xi"], 2),
        np.array(raw["lambda"], dtype=float)))


def _functional_from_spec(b, text):
    if text == "counit":
        return functional(b, b.counit)
    if text.startswith("["):
        return functional(b, _parse_vector(text))
    return load_operator_map(text, b)


def cmd_validate(args):
    try:
        if args.file.startswith("fixture:"):
            variants = (_load_algebra(args.file), None)
        else:
            variants = _parse_file(args.file, "bialgebra", bialgebra_and_rep2)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    ok = True
    for prefix, b in zip(("", "rep2:"), variants):
        if b is None:
            continue
        for r in validate_bialgebra(b, struct_tol=args.tol):
            ok = ok and r.passed
            print(f"{'PASS' if r.passed else 'FAIL'}  {prefix + r.name:<34s} "
                  f"residual {r.residual:.3e}  (tol {r.tol:.0e})")
    return 0 if ok else 1


def cmd_semigroup(args):
    b = _load_algebra(args.bialgebra)
    gamma = load_operator_map(args.generator, b)
    sg = ConvolutionSemigroup(gamma)
    grid = args.t_grid
    rows = []
    for t in grid:
        lam = sg.at(float(t)).as_vector()
        rows.append([float(t)] + [v for z in _encode(lam) for v in z])
    if args.format == "json":
        _emit(args, {"t_grid": list(map(float, grid)),
                     "rows": rows, "basis": list(b.basis_labels)})
    else:
        header = "t," + ",".join(f"{lbl}_re,{lbl}_im" for lbl in b.basis_labels)
        lines = [header] + [",".join(repr(v) for v in row) for row in rows]
        _write(args, "\n".join(lines))
    return 0


def cmd_cocycle_eval(args):
    b = _load_algebra(args.bialgebra)
    phi = Generator(b, load_operator_map(args.generator, b).values)
    try:
        x = (b.basis_element(b.label_index(args.x)) if isinstance(args.x, str)
             else b.element(args.x))
    except KeyError as exc:
        raise UsageError(f"argument --x: {exc.args[0]}; basis labels: "
                         + ", ".join(b.basis_labels)) from None
    except ValueError as exc:
        raise UsageError(f"argument --x: {exc}") from None
    dn = phi.d_noise
    for flag, g in (("--f", args.f), ("--fp", args.fp)):
        if g is not None and g.d_noise != dn:
            raise UsageError(f"argument {flag}: step values have dimension "
                             f"{g.d_noise}, the generator's noise dimension is {dn}")
        if g is not None and g.horizon < args.t - HORIZON_SLACK:
            raise UsageError(f"argument {flag}: step function ends at "
                             f"{g.horizon}, before --t {args.t}")
    f = args.f or StepFunction.zero(dn, args.t)
    fp = args.fp or StepFunction.zero(dn, args.t)
    pieces = refine(f, fp, args.t)
    value = matrix_element(phi, x, f, fp, args.t, pieces)
    s = 0.5 * args.t
    checks = {"cocycle_identity": check_cocycle_identity(phi, s, args.t - s, f, fp)}
    slack = args.tol * max(1.0, abs(value))
    orc, n_max, tail = simplex_series_within(phi, x, f, fp, args.t, slack, ORACLE_ORDERS,
                                             pieces=pieces)
    checks.update(oracle_gap=abs(value - orc), oracle_tail_bound=tail)
    _emit(args, {"value": _encode(value), "method": "semigroup-factorization",
                 "oracle_n_max": n_max, "residual_checks": checks})
    ok = checks["cocycle_identity"] <= args.tol and checks["oracle_gap"] <= tail + slack
    return 0 if ok else 1


def cmd_gns(args):
    b = _load_algebra(args.bialgebra)
    gamma = load_operator_map(args.gamma, b)
    ok, margin = check_conditionally_positive(gamma)
    if not ok:
        _emit(args, {"error": "not conditionally positive", "margin": margin})
        return 1
    triple, phi = gns_construct(gamma, check_tol=args.tol)
    payload = {
        "rank": triple.n,
        "pi": _encode(triple.pi.values),
        "delta": _encode(triple.delta.values[:, :, 0]),
        "lambda": _encode(triple.lam.as_vector()),
        "phi": _encode(phi.values),
        "residuals": triple.residuals(),
    }
    _emit(args, payload)
    return 0 if triple.max_residual() <= args.tol else 1


def cmd_classify(args):
    b = _load_algebra(args.bialgebra)
    phi = Generator(b, load_operator_map(args.generator, b).values)
    tol = args.tol
    struct = check_structure_map(phi)
    phi1 = check_phi1(phi)
    gamma = phi.lam_block()
    _, margin = check_conditionally_positive(gamma)
    corner_at_one = abs(complex(gamma.as_vector() @ b.unit))
    report = {
        "epsilon_structure": {"residuals": struct,
                              "holds": bool(max(struct.values()) <= tol)},
        "cp_form_phi1": {"residuals": {k: v for k, v in phi1.items() if k != "ok"},
                         "holds": bool(phi1["nonpositive"] <= tol)},
        "real": {"residual": phi.reality_defect(),
                 "holds": bool(phi.reality_defect() <= tol)},
        "unital_corner": {"residual": corner_at_one,
                          "conditionally_positive_margin": margin,
                          "holds": bool(corner_at_one <= tol and margin >= -tol)},
    }
    for key, entry in report.items():
        print(f"{'PASS' if entry['holds'] else 'FAIL'}  {key}: "
              + json.dumps({k: v for k, v in entry.items() if k != 'holds'},
                           default=float, sort_keys=True))
    if args.out:
        _emit(args, report)
    return 0


def cmd_derivation_solve(args):
    b = _load_algebra(args.bialgebra)
    maps = _parse_file(args.problem, "derivation problem", lambda data: [
        OperatorMap(b, _decode(data[key], 3))
        for key in ("pi_prime", "pi", "delta")])
    t, residual = solve_inner(DerivationProblem(*maps))
    _emit(args, {"T": _encode(t),
                 "residual": residual})
    return 0 if residual <= args.tol else 1


def cmd_chi_structure(args):
    b = _load_algebra(args.bialgebra)
    phi = load_operator_map(args.phi, b)
    chi = _functional_from_spec(b, args.chi)
    pi, xi, lam, residuals = implement_chi_structure(phi, chi)
    _emit(args, {"pi": _encode(pi.values),
                 "xi": _encode(xi),
                 "lambda": _encode(lam.as_vector()),
                 "residuals": residuals})
    return 0 if max(residuals.values()) <= args.tol else 1


def cmd_group_gen(args):
    data = _load_group_data(args.data)
    gen = build_group_generator(data)
    res = group_relation_residuals(gen.values, data.table)
    _emit(args, {"generator": gen.to_dict(), "residuals": res})
    return 0 if max(res.values()) <= args.tol else 1


def cmd_coboundary(args):
    data = _load_group_data(args.data).validate()
    eta, residuals = solve_coboundary(data, args.tol)
    if eta is None:
        _emit(args, {"eta": None, "residuals": residuals})
        return 1
    _emit(args, {"eta": _encode(eta), "residuals": residuals})
    return 0


def cmd_montecarlo(args):
    n = args.order
    table = fixtures.cyclic_table(n)
    b = build_function_algebra(table)
    mu = args.mu
    mc = simulate_compound_poisson(table, args.rate, mu, args.t,
                                   args.samples, args.seed)
    law = compound_poisson_law(b, args.rate, mu, args.t)
    sigmas = np.abs(mc.frequencies - law) / np.maximum(mc.standard_errors, 1e-12)
    payload = mc.to_dict()
    payload.update({"exact_law": law.tolist(), "max_sigmas": float(sigmas.max()),
                    "total_variation": 0.5 * float(np.abs(mc.frequencies - law).sum())})
    _emit(args, payload)
    return 0 if sigmas.max() <= 3.0 else 1


def cmd_report(args):
    config = RunConfig(seed=args.seed, tol=args.tol,
                       n_samples=args.samples, out=args.out)
    report = run_report(config, suite=args.battery)
    print(f"battery {args.battery}: {report['n_cases']} cases, "
          f"{report['n_failures']} failures")
    return 0 if report["all_pass"] else 1


@functools.cache
def build_parser():
    """The qlevy argument parser, built once a process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(prog="qlevy")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(parent, name, func, summary, positionals, tol=None, out=True,
             seed=False, fmt=False):
        """A leaf verb with its positionals and exactly the flags func reads."""
        p = parent.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for arg in positionals.split():
            p.add_argument(arg)
        if tol is not None:
            p.add_argument("--tol", type=nonnegative_float_arg, default=tol,
                           help="pass/fail tolerance (default %(default)g)")
        if out:
            p.add_argument("--out", type=str, default=None)
        if seed:
            p.add_argument("--seed", type=seed_arg, default=7)
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="csv")
        return p

    verb(sub, "validate", cmd_validate, "check every bialgebra axiom of a file",
         "file", tol=STRUCT_TOL, out=False)
    p = verb(sub, "semigroup", cmd_semigroup, "evolve a convolution semigroup on a t-grid",
             "bialgebra generator", fmt=True)
    p.add_argument("--t-grid", type=t_grid_arg, default="0:1:11",
                   help="start:stop:count")
    p = verb(sub, "cocycle-eval", cmd_cocycle_eval,
             "matrix element between exponential vectors", "bialgebra generator",
             tol=SOLVE_TOL)
    p.add_argument("--x", type=element_arg, required=True,
                   help="basis label or JSON coords")
    p.add_argument("--f", type=steps_arg, default=None,
                   help="step function t1:c1,...")
    p.add_argument("--fp", type=steps_arg, default=None)
    p.add_argument("--t", type=positive_float_arg, required=True)
    verb(sub, "gns", cmd_gns, "GNS reconstruction from a generator functional",
         "bialgebra gamma", tol=SOLVE_TOL)
    verb(sub, "classify", cmd_classify, "which generator classes a map belongs to",
         "bialgebra generator", tol=SPECTRAL_TOL)
    dsub = sub.add_parser("derivation", help="derivation utilities").add_subparsers(
        dest="subverb", required=True)
    verb(dsub, "solve", cmd_derivation_solve, "solve the innerness system",
         "bialgebra problem", tol=SOLVE_TOL)
    csub = sub.add_parser("chi-structure", help="chi-structure map utilities"
                          ).add_subparsers(dest="subverb", required=True)
    p = verb(csub, "implement", cmd_chi_structure, "recover (pi, xi, lambda)",
             "bialgebra phi", tol=INPUT_TOL)
    p.add_argument("chi", help="'counit', JSON coords, or a functional file")
    verb(sub, "group-gen", cmd_group_gen, "generator from group cocycle data",
         "data", tol=SPECTRAL_TOL)
    verb(sub, "coboundary", cmd_coboundary, "solve xi_g = U_g eta - eta",
         "data", tol=INPUT_TOL)
    p = verb(sub, "montecarlo", cmd_montecarlo, "compound Poisson versus semigroup law",
             "", seed=True)
    p.add_argument("--order", type=positive_int_arg, default=2,
                   help="cyclic group order")
    p.add_argument("--rate", type=nonnegative_float_arg, default=1.0)
    p.add_argument("--mu", type=real_vector_arg, required=True,
                   help="JSON probability vector")
    p.add_argument("--t", type=nonnegative_float_arg, default=1.0)
    p.add_argument("--samples", type=positive_int_arg, default=100000)
    p = verb(sub, "report", cmd_report, "run a named battery and emit a report",
             "", tol=SOLVE_TOL, seed=True)
    p.add_argument("--battery", choices=[*BATTERIES, "all"], default="axioms")
    p.add_argument("--samples", type=positive_int_arg, default=10000)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

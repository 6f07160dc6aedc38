"""Command-line surface.

Verbs: validate, semigroup, cocycle-eval, gns, classify, derivation solve,
chi-structure implement, group-gen, coboundary, montecarlo, report.
Exit codes: 0 all checks pass, 1 any check fails, 2 usage error.
"""

import argparse
import json
import sys

import numpy as np

from . import fixtures
from .algebra import (AxiomViolation, ParseError, _c2j, _j2c, _j2mat, _mat2j,
                      _read_json, bialgebra_from_dict, build_function_algebra,
                      load_bialgebra, validate_bialgebra)
from .cocycle import (HORIZON_SLACK, Generator, StepFunction, matrix_element,
                      check_cocycle_identity, simplex_series_oracle)
from .convolution import (ConvolutionSemigroup, OperatorMap, functional,
                          load_operator_map)
from .derivations import DerivationProblem, implement_chi_structure, solve_inner
from .generators import (check_phi1, check_structure_map, gns_construct,
                         check_conditionally_positive)
from .harness import (GroupCocycleData, RunConfig, build_group_generator,
                      compound_poisson_law, group_relation_residuals,
                      run_report, simulate_compound_poisson, solve_coboundary)
from .linalg import INPUT_TOL, SOLVE_TOL, SPECTRAL_TOL, STRUCT_TOL


class UsageError(Exception):
    """A well-formed argument that does not fit the other inputs (exit 2)."""


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=1, sort_keys=True))


def _write(args, text):
    if getattr(args, "out", None):
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


def _split_top_level(text, sep=","):
    """Split on separators not nested inside brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == sep and depth == 0:
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
    return np.array([_j2c(p) for p in data])


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


def steps_arg(text):
    """argparse type for a step function 't1:c1,t2:c2,...'; empty means the
    zero function."""
    if not text:
        return None
    try:
        return parse_steps(text)
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected t1:c1,t2:c2,... with each c a JSON list of [re, im] "
            f"pairs or its base64, got {text!r} ({exc})") from None


def element_arg(text):
    """argparse type for --x: a basis label, or JSON coordinates [[re, im], ...]
    returned as a complex vector."""
    if not text.startswith("["):
        return text
    try:
        return _parse_vector(text)
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected a basis label or a JSON list of [re, im] pairs, "
            f"got {text!r} ({exc})") from None


def t_grid_arg(text):
    """argparse type for 'start:stop:count', an evenly spaced time grid."""
    try:
        a, b, n = text.split(":")
        start, stop, count = float(a), float(b), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count, got {text!r}") from None
    if not (np.isfinite(start) and np.isfinite(stop)) or count < 0:
        raise argparse.ArgumentTypeError(
            f"need finite start and stop and count >= 0, got {text!r}")
    return np.linspace(start, stop, count)


def _number_arg(kind, holds, what):
    """argparse type for one finite number of the given kind for which
    ``holds`` is true; ``what`` describes such numbers."""
    def parse(text):
        try:
            value = kind(text)
            ok = np.isfinite(value) and holds(value)
        except (ValueError, TypeError):    # TypeError: an int beyond int64
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


positive_int_arg = _number_arg(int, lambda v: v > 0, "an integer >= 1")
positive_float_arg = _number_arg(float, lambda v: v > 0, "a finite number > 0")
nonnegative_float_arg = _number_arg(float, lambda v: v >= 0, "a finite number >= 0")
seed_arg = _number_arg(int, lambda v: 0 <= v < 2 ** 64, "an integer in [0, 2**64)")


def _tol(args, default):
    """The --tol flag, or the verb's default when it is not given."""
    return default if args.tol is None else args.tol


def real_vector_arg(text):
    """argparse type for a JSON list of real numbers."""
    try:
        vec = np.array(json.loads(text), dtype=float)
    except (json.JSONDecodeError, TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected a JSON list of numbers, got {text!r}") from None
    if vec.ndim != 1:
        raise argparse.ArgumentTypeError(f"expected a flat JSON list, got {text!r}")
    return vec


def _parse_file(path, what, parse):
    """parse(data) for the JSON data in a file; data that parse cannot read
    raises :class:`ParseError` naming ``what``."""
    data = _read_json(path)
    try:
        return parse(data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed {what} file {path}: {exc!r}") from exc


def _load_group_data(path):
    return _parse_file(path, "group cocycle", lambda raw: GroupCocycleData(
        np.array(raw["table"], dtype=int),
        np.array([_j2mat(m) for m in raw["U"]]),
        _j2mat(raw["xi"]),
        np.array(raw["lambda"], dtype=float)))


def _functional_from_spec(b, text):
    if text == "counit":
        return functional(b, b.counit)
    if text.startswith("["):
        return functional(b, _parse_vector(text))
    return load_operator_map(text, b)


def cmd_validate(args):
    try:
        b = (_load_algebra(args.file) if args.file.startswith("fixture:")
             else bialgebra_from_dict(_read_json(args.file)))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    results = validate_bialgebra(b, struct_tol=_tol(args, STRUCT_TOL))
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{status}  {r.name:<34s} residual {r.residual:.3e}  (tol {r.tol:.0e})")
    return 0 if ok else 1


def cmd_semigroup(args):
    b = _load_algebra(args.bialgebra)
    gamma = load_operator_map(args.generator, b)
    sg = ConvolutionSemigroup(gamma)
    grid = args.t_grid
    rows = []
    for t in grid:
        lam = sg.at(float(t)).as_vector()
        rows.append([float(t)] + [v for z in lam for v in _c2j(z)])
    if (args.format or "csv") == "json":
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
    if isinstance(args.x, str):
        x = b.basis_element(b.label_index(args.x))
    else:
        x = b.element(args.x)
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
    value = matrix_element(phi, x, f, fp, args.t)
    checks = {}
    s = 0.5 * args.t
    checks["cocycle_identity"] = check_cocycle_identity(phi, s, args.t - s, f, fp)
    orc, tail = simplex_series_oracle(phi, x, f, fp, args.t, n_max=4)
    checks["oracle_gap"] = abs(value - orc)
    checks["oracle_tail_bound"] = tail
    _emit(args, {"value": _c2j(value), "method": "semigroup-factorization",
                 "residual_checks": checks})
    return 0 if checks["cocycle_identity"] <= _tol(args, SOLVE_TOL) else 1


def cmd_gns(args):
    b = _load_algebra(args.bialgebra)
    gamma = load_operator_map(args.gamma, b)
    ok, margin = check_conditionally_positive(gamma)
    if not ok:
        _emit(args, {"error": "not conditionally positive", "margin": margin})
        return 1
    tol = _tol(args, SOLVE_TOL)
    triple, phi = gns_construct(gamma, check_tol=tol)
    payload = {
        "rank": triple.n,
        "pi": [_mat2j(m) for m in triple.pi.values],
        "delta": _mat2j(triple.delta.values[:, :, 0]),
        "lambda": [_c2j(z) for z in triple.lam.as_vector()],
        "phi": [_mat2j(m) for m in phi.values],
        "residuals": triple.residuals(),
    }
    _emit(args, payload)
    return 0 if triple.max_residual() <= tol else 1


def cmd_classify(args):
    b = _load_algebra(args.bialgebra)
    phi = Generator(b, load_operator_map(args.generator, b).values)
    tol = _tol(args, SPECTRAL_TOL)
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
        OperatorMap(b, np.array([_j2mat(m) for m in data[key]]))
        for key in ("pi_prime", "pi", "delta")])
    t, residual = solve_inner(DerivationProblem(*maps))
    _emit(args, {"T": _mat2j(t),
                 "residual": residual})
    return 0 if residual <= _tol(args, SOLVE_TOL) else 1


def cmd_chi_structure(args):
    b = _load_algebra(args.bialgebra)
    phi = load_operator_map(args.phi, b)
    chi = _functional_from_spec(b, args.chi)
    pi, xi, lam, residuals = implement_chi_structure(phi, chi)
    _emit(args, {"pi": [_mat2j(m) for m in pi.values],
                 "xi": [_c2j(z) for z in xi],
                 "lambda": [_c2j(z) for z in lam.as_vector()],
                 "residuals": residuals})
    return 0 if max(residuals.values()) <= _tol(args, INPUT_TOL) else 1


def cmd_group_gen(args):
    data = _load_group_data(args.data)
    gen = build_group_generator(data)
    res = group_relation_residuals(gen.values, data.table)
    _emit(args, {"generator": gen.to_dict(), "residuals": res})
    return 0 if max(res.values()) <= _tol(args, SPECTRAL_TOL) else 1


def cmd_coboundary(args):
    data = _load_group_data(args.data).validate()
    eta, residuals = solve_coboundary(data, _tol(args, INPUT_TOL))
    if eta is None:
        _emit(args, {"eta": None, "residuals": residuals})
        return 1
    _emit(args, {"eta": [_c2j(z) for z in eta], "residuals": residuals})
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
    config = RunConfig(seed=args.seed, tol=_tol(args, SOLVE_TOL),
                       n_samples=args.samples, out=args.out)
    report = run_report(config, suite=args.battery)
    print(f"battery {args.battery}: {report['n_cases']} cases, "
          f"{report['n_failures']} failures")
    return 0 if report["all_pass"] else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=seed_arg, default=argparse.SUPPRESS)
    common.add_argument("--tol", type=nonnegative_float_arg, default=argparse.SUPPRESS)
    common.add_argument("--out", type=str, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["json", "csv"],
                        default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(prog="qlevy")
    parser.add_argument("--seed", type=seed_arg, default=7)
    parser.add_argument("--tol", type=nonnegative_float_arg, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check every bialgebra axiom of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("semigroup", parents=[common],
                       help="evolve a convolution semigroup on a t-grid")
    p.add_argument("bialgebra")
    p.add_argument("generator")
    p.add_argument("--t-grid", type=t_grid_arg, default="0:1:11",
                   help="start:stop:count")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("cocycle-eval", parents=[common],
                       help="matrix element between exponential vectors")
    p.add_argument("bialgebra")
    p.add_argument("generator")
    p.add_argument("--x", type=element_arg, required=True,
                   help="basis label or JSON coords")
    p.add_argument("--f", type=steps_arg, default=None,
                   help="step function t1:c1,...")
    p.add_argument("--fp", type=steps_arg, default=None)
    p.add_argument("--t", type=positive_float_arg, required=True)
    p.set_defaults(func=cmd_cocycle_eval)

    p = sub.add_parser("gns", parents=[common],
                       help="GNS reconstruction from a generator functional")
    p.add_argument("bialgebra")
    p.add_argument("gamma")
    p.set_defaults(func=cmd_gns)

    p = sub.add_parser("classify", parents=[common],
                       help="which generator classes a map belongs to")
    p.add_argument("bialgebra")
    p.add_argument("generator")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("derivation", help="derivation utilities")
    dsub = p.add_subparsers(dest="subverb", required=True)
    ps = dsub.add_parser("solve", parents=[common],
                         help="solve the innerness system")
    ps.add_argument("bialgebra")
    ps.add_argument("problem")
    ps.set_defaults(func=cmd_derivation_solve)

    p = sub.add_parser("chi-structure", help="chi-structure map utilities")
    csub = p.add_subparsers(dest="subverb", required=True)
    pc = csub.add_parser("implement", parents=[common],
                         help="recover (pi, xi, lambda)")
    pc.add_argument("bialgebra")
    pc.add_argument("phi")
    pc.add_argument("chi", help="'counit', JSON coords, or a functional file")
    pc.set_defaults(func=cmd_chi_structure)

    p = sub.add_parser("group-gen", parents=[common],
                       help="generator from group cocycle data")
    p.add_argument("data")
    p.set_defaults(func=cmd_group_gen)

    p = sub.add_parser("coboundary", parents=[common],
                       help="solve xi_g = U_g eta - eta")
    p.add_argument("data")
    p.set_defaults(func=cmd_coboundary)

    p = sub.add_parser("montecarlo", parents=[common],
                       help="compound Poisson versus semigroup law")
    p.add_argument("--order", type=positive_int_arg, default=2,
                   help="cyclic group order")
    p.add_argument("--rate", type=nonnegative_float_arg, default=1.0)
    p.add_argument("--mu", type=real_vector_arg, required=True,
                   help="JSON probability vector")
    p.add_argument("--t", type=nonnegative_float_arg, default=1.0)
    p.add_argument("--samples", type=positive_int_arg, default=100000)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("report", parents=[common],
                       help="run a named battery and emit a report")
    p.add_argument("--battery", default="axioms",
                   help="axioms|cocycle|gns|derivations|montecarlo|all")
    p.add_argument("--samples", type=positive_int_arg, default=10000)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ParseError, AxiomViolation, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

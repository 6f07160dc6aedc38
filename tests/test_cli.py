import base64
import json
from pathlib import Path

import numpy as np
import pytest

from qlevy.algebra import validate_bialgebra
from qlevy.cli import build_parser, main, parse_steps
from qlevy.cocycle import Generator, matrix_element
from qlevy.convolution import OperatorMap, functional
from qlevy.derivations import inner_derivation
from qlevy.fixtures import bundled_fixtures, s3_table
from qlevy.generators import make_structure_map
from qlevy.harness import coboundary_data
from qlevy.linalg import SOLVE_TOL, maxabs


@pytest.fixture(scope="module")
def z3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("alg") / "z3.json"
    bundled_fixtures()["C(Z3)"].save(path)
    return str(path)


def test_validate_pass(z3_file, capsys):
    assert main(["validate", z3_file]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "OSC1-coassociativity" in out


def test_validate_fail_names_axiom(tmp_path, capsys):
    data = bundled_fixtures()["C(Z2)"].to_dict()
    data["coproduct"][0]["re"] += 1e-3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["semigroup"])  # missing required arguments
    assert err.value.code == 2


@pytest.mark.parametrize("grid", ["0:1", "0:1:5:7", "a:1:5", "0:1:x", "0:1:2.5",
                                  "0:1:-3", "nan:1:4", "0:inf:4"])
def test_malformed_t_grid_is_usage_error(z3_file, grid, capsys):
    with pytest.raises(SystemExit) as err:
        main(["semigroup", z3_file, "unused.json", "--t-grid", grid])
    assert err.value.code == 2
    assert "--t-grid" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["[0.5,", "{\"a\": 1}", "[[0.5], [0.5]]", "0.5",
                                "[\"x\", 1]"])
def test_malformed_mu_is_usage_error(mu, capsys):
    with pytest.raises(SystemExit) as err:
        main(["montecarlo", "--order", "2", "--mu", mu, "--samples", "10"])
    assert err.value.code == 2
    assert "--mu" in capsys.readouterr().err


def test_mu_not_a_probability_vector_is_check_failure(capsys):
    # well-formed but not a probability law: a failed check, not a usage error
    assert main(["montecarlo", "--order", "2", "--mu", "[0.7, 0.7]",
                 "--samples", "10"]) == 1


def test_semigroup_csv(z3_file, tmp_path):
    b = bundled_fixtures()["C(Z3)"]
    gamma = functional(b, 0.5 * (np.eye(3)[1] - np.eye(3)[0]))
    gpath = tmp_path / "gamma.json"
    gamma.save(gpath)
    out = tmp_path / "rows.csv"
    assert main(["semigroup", z3_file, str(gpath),
                 "--t-grid", "0:1:5", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[1] - 1.0) < 1e-14


def test_parse_steps_inline_and_base64():
    inline = parse_steps("0.5:[[0.3,0.1],[0.2,0.0]],1.0:[[-0.5,0.0],[0.0,0.4]]")
    assert inline.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert inline.values[0, 0] == 0.3 + 0.1j
    token = base64.b64encode(b"[[0.3,0.1],[0.2,0.0]]").decode()
    b64 = parse_steps(f"0.5:{token}")
    assert maxabs(b64.values[0] - inline.values[0]) == 0.0


def test_cocycle_eval(z3_file, tmp_path, capsys):
    b = bundled_fixtures()["C(Z3)"]
    rng = np.random.default_rng(0)
    phi = Generator(b, 0.4 * (rng.standard_normal((3, 3, 3))
                              + 1j * rng.standard_normal((3, 3, 3))))
    gpath = tmp_path / "phi.json"
    phi.save(gpath)
    assert main(["cocycle-eval", z3_file, str(gpath), "--x", "d1",
                 "--f", "0.4:[[0.3,0.1],[0.2,0.0]],0.9:[[0.1,0.0],[0.0,0.0]]",
                 "--t", "0.9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "semigroup-factorization"
    checks = payload["residual_checks"]
    assert checks["cocycle_identity"] <= 1e-9
    got = complex(*payload["value"])
    assert abs(got) > 0
    assert checks["oracle_tail_bound"] <= 1e-9 * max(1.0, abs(got))
    assert checks["oracle_gap"] <= checks["oracle_tail_bound"] + 1e-9 * max(1.0, abs(got))


@pytest.fixture
def flat_z3_generator(tmp_path):
    """phi = 0.1 on every entry of a d_noise = 1 generator on C(Z3)."""
    gpath = tmp_path / "phi.json"
    Generator(bundled_fixtures()["C(Z3)"], 0.1 * np.ones((3, 2, 2))).save(gpath)
    return str(gpath)


def test_cocycle_eval_oracle_checks_long_times(flat_z3_generator, capsys):
    # at the fixed order 4 the tail bound was 288 against a value of 134
    assert main(["cocycle-eval", "fixture:C(Z3)", flat_z3_generator, "--x", "d1",
                 "--t", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    value = abs(complex(*payload["value"]))
    checks = payload["residual_checks"]
    assert payload["oracle_n_max"] == 32
    assert checks["oracle_tail_bound"] <= 1e-9 * value
    assert checks["oracle_gap"] <= checks["oracle_tail_bound"]


def test_cocycle_eval_step_function_ending_within_the_slack(flat_z3_generator, capsys):
    # --f ends 5e-10 before --t: the last piece's midpoint lies past its horizon
    assert main(["cocycle-eval", "fixture:C(Z3)", flat_z3_generator, "--x", "d1",
                 "--t", "1.0000000005", "--f", "0.4:[[0.3,0]],1.0:[[0.5,0]]"]) == 0
    checks = json.loads(capsys.readouterr().out)["residual_checks"]
    assert checks["cocycle_identity"] <= 1e-9


def test_cocycle_eval_runs_the_oracle_once(flat_z3_generator, monkeypatch, capsys):
    # the order comes from the tail bounds alone, all taken in one call; the
    # series is summed once
    import qlevy.cli
    import qlevy.cocycle
    bounds, orders = [], []
    tail_bounds, series = qlevy.cocycle._tail_bounds, qlevy.cocycle._simplex_series

    def counted_bounds(*args):
        bounds.append(tuple(args[-1]))
        return tail_bounds(*args)

    def counted_series(*args):
        orders.append(args[5])
        return series(*args)

    monkeypatch.setattr(qlevy.cocycle, "_tail_bounds", counted_bounds)
    monkeypatch.setattr(qlevy.cocycle, "_simplex_series", counted_series)
    assert main(["cocycle-eval", "fixture:C(Z3)", flat_z3_generator, "--x", "d1",
                 "--t", "20"]) == 0
    assert bounds == [qlevy.cli.ORACLE_ORDERS]
    assert orders == [32]
    assert json.loads(capsys.readouterr().out)["oracle_n_max"] == 32


def test_cocycle_eval_value_is_the_matrix_element(tmp_path, capsys):
    # the printed value is matrix_element at the parsed step functions, bit
    # for bit, on a dual with a 2 x 2 sigma and pieces from both functions
    b = bundled_fixtures()["C(S3)"]
    rng = np.random.default_rng(4)
    phi = Generator(b, 0.4 * (rng.standard_normal((6, 2, 2))
                              + 1j * rng.standard_normal((6, 2, 2))))
    gpath = tmp_path / "phi.json"
    phi.save(gpath)
    f = "0.3:[[0.5,0.1]],0.7:[[-0.2,0.4]],1.1:[[0.3,0.0]]"
    fp = "0.5:[[0.1,0.2]],1.1:[[0.4,-0.3]]"
    assert main(["cocycle-eval", "fixture:C(S3)", str(gpath), "--x", "d1",
                 "--f", f, "--fp", fp, "--t", "1.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    steps = [parse_steps(s) for s in (f, fp)]
    want = matrix_element(phi, b.basis_element(1), *steps, 1.1)
    assert complex(*payload["value"]) == want
    checks = payload["residual_checks"]
    assert checks["oracle_gap"] <= checks["oracle_tail_bound"] + 1e-9 * abs(want)


S3_F = ("0.2:[[0.5,0.1],[0.2,0.0]],0.5:[[-0.3,0.2],[0.1,0.4]],"
        "0.9:[[0.2,-0.1],[0.0,0.3]],1.2:[[0.4,0.0],[-0.2,0.1]]")
S3_FP = "0.35:[[0.1,0.3],[0.0,-0.2]],0.7:[[0.3,0.0],[0.2,0.2]],1.2:[[-0.1,0.1],[0.4,0.0]]"
# f and f' cut at one grid, 0.3, 0.6 and 0.9
GRID_F = ("0.3:[[0.5,0.1],[0.2,0.0]],0.6:[[-0.3,0.2],[0.1,0.4]],"
          "0.9:[[0.2,-0.1],[0.0,0.3]],1.2:[[0.4,0.0],[-0.2,0.1]]")
GRID_FP = ("0.3:[[0.1,0.3],[0.0,-0.2]],0.6:[[0.3,0.0],[0.2,0.2]],"
           "0.9:[[-0.1,0.1],[0.4,0.0]],1.2:[[0.2,-0.2],[0.1,0.1]]")


@pytest.mark.parametrize("pin, name, argv", [
    ("cocycle_eval_z3.json", "C(Z3)", ["--x", "d1", "--t", "20"]),
    ("cocycle_eval_s3.json", "C(S3)", ["--x", "d3", "--t", "1.2", "--f", S3_F, "--fp", S3_FP]),
    ("cocycle_eval_s3_shared_grid.json", "C(S3)",
     ["--x", "d3", "--t", "1.2", "--f", GRID_F, "--fp", GRID_FP]),
])
def test_cocycle_eval_matches_its_pin(tmp_path, pin, name, argv):
    # the CI's two invocations and a pair sharing its breakpoints: method and
    # oracle order exactly, every number within 1e-3 of the verb's tolerance
    # (relative to a value above 1), which leaves room for another BLAS
    b = bundled_fixtures()[name]
    if name == "C(Z3)":
        values = 0.1 * np.ones((3, 2, 2))
    else:
        r = np.random.default_rng(1)
        values = 0.4 * (r.standard_normal((6, 3, 3)) + 1j * r.standard_normal((6, 3, 3)))
    gpath, out = tmp_path / "phi.json", tmp_path / "ce.json"
    Generator(b, values).save(gpath)
    assert main(["cocycle-eval", f"fixture:{name}", str(gpath), *argv, "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((Path(__file__).parent / "data" / pin).read_text())
    assert (got["method"], got["oracle_n_max"]) == (want["method"], want["oracle_n_max"])
    assert sorted(got["residual_checks"]) == sorted(want["residual_checks"])
    pairs = list(zip(got["value"], want["value"]))
    pairs += [(got["residual_checks"][k], v) for k, v in want["residual_checks"].items()]
    for g, w in pairs:
        assert abs(g - w) <= 1e-3 * SOLVE_TOL * max(1.0, abs(w)), (pin, g, w)


def test_cocycle_eval_fails_on_oracle_gap(flat_z3_generator, monkeypatch, capsys):
    import qlevy.cli
    exact = qlevy.cli.matrix_element
    monkeypatch.setattr(qlevy.cli, "matrix_element",
                        lambda *a: exact(*a) + 1e-3)
    assert main(["cocycle-eval", "fixture:C(Z3)", flat_z3_generator, "--x", "d1",
                 "--t", "0.9"]) == 1
    assert json.loads(capsys.readouterr().out)["residual_checks"]["oracle_gap"] > 1e-4


@pytest.mark.parametrize("flag", ["--f", "--fp"])
@pytest.mark.parametrize("spec", ["garbage", "0.5", "0.5:[[0.3,", "x:[[0.3,0.1]]",
                                  "0.5:[[0.3,0.1]],0.2:[[0.1,0.0]]",
                                  "0.5:[[1,0]],0.9:[[1,0],[2,0]]", "0.5:%%%",
                                  "0.5:[0.3]", "0.5:[{\"re\": 1}]",
                                  "nan:[[0.5,0]],1.0:[[0.1,0]]",
                                  "0.5:[[0.5,0]],nan:[[0.1,0]]",
                                  "0.5:[[0.5,0]],inf:[[0.1,0]]"])
def test_malformed_steps_are_usage_errors(z3_file, flag, spec, capsys):
    with pytest.raises(SystemExit) as err:
        main(["cocycle-eval", z3_file, "unused.json", "--x", "d1",
              flag, spec, "--t", "0.9"])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["[[0.5,", "[1, 2]", "[{\"re\": 1}]", "[[1]]"])
def test_malformed_x_is_usage_error(z3_file, x, capsys):
    with pytest.raises(SystemExit) as err:
        main(["cocycle-eval", z3_file, "unused.json", "--x", x, "--t", "0.9"])
    assert err.value.code == 2
    assert "argument --x:" in capsys.readouterr().err


def test_cocycle_eval_json_x_and_zero_fp(z3_file, tmp_path, capsys):
    b = bundled_fixtures()["C(Z3)"]
    phi = Generator(b, 0.3 * np.ones((3, 2, 2)))
    gpath = tmp_path / "phi.json"
    phi.save(gpath)
    assert main(["cocycle-eval", z3_file, str(gpath),
                 "--x", "[[1,0],[0,0],[0,0]]", "--f", "0.9:[[0.3,0.1]]",
                 "--fp", "", "--t", "0.9"]) == 0
    by_label = main(["cocycle-eval", z3_file, str(gpath), "--x", b.basis_labels[0],
                     "--f", "0.9:[[0.3,0.1]]", "--t", "0.9"])
    assert by_label == 0
    first, second = capsys.readouterr().out.split("\n}\n")[:2]
    assert json.loads(first + "}")["value"] == json.loads(second + "}")["value"]


def test_gns_cli(z3_file, tmp_path, capsys):
    b = bundled_fixtures()["C(Z3)"]
    gamma = functional(b, 0.8 * (np.array([0.0, 1.0, 0.0]) - b.counit))
    gpath = tmp_path / "gamma.json"
    gamma.save(gpath)
    assert main(["gns", z3_file, str(gpath)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 1
    assert max(payload["residuals"].values()) <= 1e-9


def test_classify_cli(tmp_path, capsys):
    b = bundled_fixtures()["Alg(Z4)"]
    bpath = tmp_path / "alg.json"
    b.save(bpath)
    pi = OperatorMap(b, b.rep_images)
    rng = np.random.default_rng(1)
    from qlevy.generators import make_structure_map
    phi = make_structure_map(pi, rng.standard_normal(4))
    ppath = tmp_path / "phi.json"
    phi.save(ppath)
    assert main(["classify", str(bpath), str(ppath)]) == 0
    out = capsys.readouterr().out
    assert "epsilon_structure" in out and "PASS" in out


def test_derivation_solve_cli(tmp_path, capsys):
    b = bundled_fixtures()["Alg(Z3)"]
    bpath = tmp_path / "alg.json"
    b.save(bpath)
    pi = OperatorMap(b, b.rep_images)
    rng = np.random.default_rng(2)
    t0 = rng.standard_normal((3, 3))
    delta = inner_derivation(pi, pi, t0)
    def mat_json(vals):
        return [[[ [z.real, z.imag] for z in row] for row in m] for m in vals]
    problem = {"pi_prime": mat_json(pi.values), "pi": mat_json(pi.values),
               "delta": mat_json(delta.values)}
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(problem))
    assert main(["derivation", "solve", str(bpath), str(ppath)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] <= 1e-9


def test_chi_structure_cli(tmp_path, capsys):
    b = bundled_fixtures()["C(Z4)"]
    bpath = tmp_path / "alg.json"
    b.save(bpath)
    from qlevy.derivations import implemented_chi_structure
    pi = OperatorMap(b, b.rep_images)
    chi = functional(b, b.counit)
    phi = implemented_chi_structure(pi, chi, np.array([0.2, 0.1, 0.0, 0.4]))
    ppath = tmp_path / "phi.json"
    phi.save(ppath)
    assert main(["chi-structure", "implement", str(bpath), str(ppath),
                 "counit"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residuals"]["reassembly"] <= 1e-10


def test_group_gen_and_coboundary_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    table = s3_table()
    b = bundled_fixtures()["Alg(S3)"]
    u = np.array([b.rep_images[g][2:, 2:] for g in range(6)])
    data = coboundary_data(table, u, rng.standard_normal(2))
    raw = {
        "table": table.tolist(),
        "U": [[[ [z.real, z.imag] for z in row] for row in m] for m in data.unitaries],
        "xi": [[[z.real, z.imag] for z in row] for row in data.xi],
        "lambda": data.lam.tolist(),
    }
    dpath = tmp_path / "data.json"
    dpath.write_text(json.dumps(raw))
    assert main(["group-gen", str(dpath), "--out", str(tmp_path / "gen.json")]) == 0
    payload = json.loads((tmp_path / "gen.json").read_text())
    assert max(payload["residuals"].values()) <= 1e-10
    assert main(["coboundary", str(dpath)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta"] is not None


def test_montecarlo_cli(capsys):
    assert main(["montecarlo", "--order", "2", "--rate", "1.0",
                 "--mu", "[0.0, 1.0]", "--t", "0.5",
                 "--samples", "20000", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_sigmas"] <= 3.0
    assert payload["seed"] == 11


def test_report_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--battery", "axioms", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert "battery axioms" in capsys.readouterr().out


def test_report_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        res = subprocess.run(
            [sys.executable, "-m", "qlevy.cli", "report", "--battery",
             "cocycle", "--seed", "42", "--out", str(p)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _group_data_raw():
    b = bundled_fixtures()["Alg(S3)"]
    u = np.array([b.rep_images[g][2:, 2:] for g in range(6)])
    data = coboundary_data(s3_table(), u, np.array([0.3, -0.2]))
    return {"table": s3_table().tolist(),
            "U": [[[[z.real, z.imag] for z in row] for row in m] for m in data.unitaries],
            "xi": [[[z.real, z.imag] for z in row] for row in data.xi],
            "lambda": data.lam.tolist()}


@pytest.mark.parametrize("verb", ["group-gen", "coboundary"])
@pytest.mark.parametrize("damage", ["drop U", "drop lambda", "bad pair", "ragged U",
                                    "not JSON"])
def test_malformed_group_data_is_one_error_line(tmp_path, verb, damage, capsys):
    raw = _group_data_raw()
    if damage == "drop U":
        del raw["U"]
    elif damage == "drop lambda":
        del raw["lambda"]
    elif damage == "bad pair":
        raw["xi"][1][0] = [0.1, 0.2, 0.3]
    elif damage == "ragged U":
        raw["U"][2] = raw["U"][2][:1]
    path = tmp_path / "data.json"
    path.write_text("{" if damage == "not JSON" else json.dumps(raw))
    assert main([verb, str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert ("malformed group cocycle file" in err[0]
            or "invalid JSON" in err[0]), err


@pytest.mark.parametrize("verb, damage", [("validate", "dim 100000"),
                                          ("semigroup", "dim 100000"),
                                          ("semigroup", "ragged values")])
def test_malformed_data_file_is_one_error_line(tmp_path, verb, damage, capsys):
    # "dim" 100000 on a 3-dimensional file must fail its size checks before
    # any (dim, dim, dim) tensor is allocated; ragged "values" must name the file
    b = bundled_fixtures()["C(Z3)"]
    bpath, gpath = tmp_path / "alg.json", tmp_path / "gamma.json"
    data = b.to_dict()
    gamma = functional(b, 0.5 * (np.eye(3)[1] - np.eye(3)[0])).to_dict()
    if damage == "dim 100000":
        data["dim"] = 100000
        bad, what = bpath, "bialgebra"
    else:
        gamma["values"][1].append([[0.0, 0.0]])
        bad, what = gpath, "operator-map"
    bpath.write_text(json.dumps(data))
    gpath.write_text(json.dumps(gamma))
    argv = [verb, str(bpath)] + ([str(gpath)] if verb == "semigroup" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    prefix = "parse error" if verb == "validate" else "error"
    assert err[0].startswith(f"{prefix}: malformed {what} file {bad}: "), err


def test_group_gen_checks_relations_once(tmp_path, monkeypatch, capsys):
    import qlevy.cli
    import qlevy.harness
    calls = []
    real = qlevy.harness.group_relation_residuals

    def counted(psi, table):
        calls.append(1)
        return real(psi, table)

    monkeypatch.setattr(qlevy.harness, "group_relation_residuals", counted)
    monkeypatch.setattr(qlevy.cli, "group_relation_residuals", counted)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(_group_data_raw()))
    assert main(["group-gen", str(path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("key", ["pi_prime", "pi", "delta"])
def test_malformed_derivation_problem_is_one_error_line(tmp_path, key, capsys):
    b = bundled_fixtures()["Alg(Z3)"]
    bpath = tmp_path / "alg.json"
    b.save(bpath)
    vals = [[[[z.real, z.imag] for z in row] for row in m] for m in b.rep_images]
    problem = {"pi_prime": vals, "pi": vals, "delta": vals}
    del problem[key]
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(problem))
    assert main(["derivation", "solve", str(bpath), str(ppath)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: malformed derivation problem file") and key in err[0]


@pytest.mark.parametrize("flag", ["--f", "--fp"])
@pytest.mark.parametrize("spec, why", [
    ("0.9:[[0.3,0.1],[0.2,0]]", "dimension"),   # the generator has d_noise 1
    ("0.5:[[0.3,0.1]]", "ends at"),             # does not cover [0, --t]
])
def test_step_function_not_fitting_is_usage_error(z3_file, tmp_path, flag, spec, why,
                                                  capsys):
    b = bundled_fixtures()["C(Z3)"]
    gpath = tmp_path / "phi.json"
    Generator(b, 0.3 * np.ones((3, 2, 2))).save(gpath)
    with pytest.raises(SystemExit) as err:
        main(["cocycle-eval", z3_file, str(gpath), "--x", "d1", flag, spec,
              "--t", "0.9"])
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert f"argument {flag}:" in msg and why in msg


@pytest.mark.parametrize("argv, flag", [
    (["cocycle-eval", "{z3}", "unused.json", "--x", "d1", "--t", "-1"], "--t"),
    (["cocycle-eval", "{z3}", "unused.json", "--x", "d1", "--t", "0"], "--t"),
    (["cocycle-eval", "{z3}", "unused.json", "--x", "d1", "--t", "inf"], "--t"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--t", "-1"], "--t"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--t", "nan"], "--t"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--rate", "-1"], "--rate"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--samples", "0"], "--samples"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--samples", "2.5"], "--samples"),
    (["montecarlo", "--mu", "[1.0]", "--order", "0"], "--order"),
    (["montecarlo", "--mu", "[1.0]", "--order", "-2"], "--order"),
    (["report", "--samples", "0"], "--samples"),
    (["report", "--samples", "-5"], "--samples"),
    (["validate", "{z3}", "--tol", "nan"], "--tol"),
    (["validate", "{z3}", "--tol", "-1"], "--tol"),
    (["validate", "{z3}", "--tol", "inf"], "--tol"),
    (["report", "--tol", "tiny"], "--tol"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--seed", "-1"], "--seed"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--seed", "1.5"], "--seed"),
    (["report", "--seed", str(2 ** 64)], "--seed"),
    (["report", "--seed", "-1"], "--seed"),
    (["report", "--battery", "nope"], "--battery"),
])
def test_out_of_range_number_is_usage_error(z3_file, argv, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main([a.format(z3=z3_file) for a in argv])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


# 10**18 float64 values are 8e18 bytes: an allocation that fails at once
TOO_MANY = str(10 ** 18)


def test_t_grid_too_large_to_allocate_is_usage_error(z3_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["semigroup", z3_file, "unused.json", "--t-grid", f"0:1:{TOO_MANY}"])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "argument --t-grid:" in errors[0], errors


def test_montecarlo_too_large_to_allocate_is_one_error_line(capsys):
    assert main(["montecarlo", "--mu", "[0.5,0.5]", "--samples", TOO_MANY]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


# each verb, a minimal command line for it and the global flags it reads
VERB_FLAGS = [
    ("validate", "a.json", {"--tol"}),
    ("semigroup", "a.json g.json", {"--out", "--format"}),
    ("cocycle-eval", "a.json g.json --x e --t 1", {"--tol", "--out"}),
    ("gns", "a.json g.json", {"--tol", "--out"}),
    ("classify", "a.json g.json", {"--tol", "--out"}),
    ("derivation solve", "a.json p.json", {"--tol", "--out"}),
    ("chi-structure implement", "a.json phi.json counit", {"--tol", "--out"}),
    ("group-gen", "d.json", {"--tol", "--out"}),
    ("coboundary", "d.json", {"--tol", "--out"}),
    ("montecarlo", "--mu [1.0]", {"--seed", "--out"}),
    ("report", "", {"--tol", "--seed", "--out"}),
]
FLAG_VALUES = {"--seed": "3", "--tol": "0.5", "--out": "r.txt", "--format": "json"}


def _flag_cases(read):
    return [pytest.param(f"{verb} {rest}".split(), flag, id=f"{verb}{flag}")
            for verb, rest, flags in VERB_FLAGS for flag in FLAG_VALUES
            if (flag in flags) == read]


@pytest.mark.parametrize("argv, flag", _flag_cases(read=False))
def test_flag_the_verb_does_not_read_is_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, FLAG_VALUES[flag]])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", _flag_cases(read=True))
def test_flag_the_verb_reads_is_parsed(argv, flag):
    args = build_parser().parse_args(argv + [flag, FLAG_VALUES[flag]])
    assert str(getattr(args, flag[2:])) == FLAG_VALUES[flag]


@pytest.mark.parametrize("extra", [["--t", "0"], ["--rate", "0"]])
def test_montecarlo_accepts_zero_time_and_rate(extra, capsys):
    # no jumps: every sample stays at the identity, as the exact law says
    assert main(["montecarlo", "--mu", "[0.5,0.5]", "--samples", "50"] + extra) == 0
    assert json.loads(capsys.readouterr().out)["frequencies"] == [1.0, 0.0]


def test_validate_honours_zero_tol(z3_file, capsys):
    # every residual of C(Z3) is exactly zero, so tol 0 still passes
    assert main(["validate", z3_file, "--tol", "0"]) == 0
    out = capsys.readouterr().out
    assert "(tol 0e+00)" in out and "(tol 1e-12)" not in out


def test_largest_seed_accepted(capsys):
    seed = 2 ** 64 - 1
    assert main(["montecarlo", "--mu", "[0.5,0.5]", "--samples", "50", "--t", "0",
                 "--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed


def test_validate_fixture_matches_file(z3_file, capsys):
    assert main(["validate", z3_file]) == 0
    from_file = capsys.readouterr().out
    assert main(["validate", "fixture:C(Z3)"]) == 0
    out = capsys.readouterr().out
    assert out == from_file
    assert len(out.splitlines()) == len(validate_bialgebra(bundled_fixtures()["C(Z3)"]))


@pytest.mark.parametrize("argv", [
    ["validate", "{fx}"], ["semigroup", "{fx}", "g.json"],
    ["cocycle-eval", "{fx}", "g.json", "--x", "e", "--t", "1"], ["gns", "{fx}", "g.json"],
    ["classify", "{fx}", "g.json"], ["derivation", "solve", "{fx}", "p.json"],
    ["chi-structure", "implement", "{fx}", "phi.json", "counit"],
])
def test_unknown_fixture_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([a.format(fx="fixture:Nope") for a in argv])
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert "'fixture:Nope'" in msg
    assert all(name in msg for name in bundled_fixtures())


@pytest.fixture
def s3_gamma(tmp_path):
    """A generator functional on Alg(S3) whose GNS triple has rank 3 and
    rounding-level, nonzero residuals."""
    b = bundled_fixtures()["Alg(S3)"]
    c = np.random.default_rng(0).standard_normal(b.rep_dim)
    path = tmp_path / "gamma.json"
    make_structure_map(OperatorMap(b, b.rep_images), c).lam_block().save(path)
    return str(path)


def test_gns_tol_is_the_check_tolerance(s3_gamma, capsys):
    # --tol bounds the triple residuals; the Gram rank cut keeps its
    # data-relative default, so a loose --tol keeps the full rank
    assert main(["gns", "fixture:Alg(S3)", s3_gamma]) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(["gns", "fixture:Alg(S3)", s3_gamma, "--tol", "100"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert default["rank"] == loose["rank"] == 3
    assert loose["residuals"] == default["residuals"]


def test_gns_failed_recheck_is_one_error_line(s3_gamma, capsys):
    assert main(["gns", "fixture:Alg(S3)", s3_gamma, "--tol", "0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: reconstructed triple")
    assert "rank threshold" not in err[0] and "at rank 3;" in err[0]


@pytest.fixture(scope="module")
def alg_s3_inputs(tmp_path_factory):
    """Input files on Alg(S3) on which every check has a nonzero residual."""
    d = tmp_path_factory.mktemp("alg_s3")
    b = bundled_fixtures()["Alg(S3)"]
    rng = np.random.default_rng(0)
    pi = OperatorMap(b, b.rep_images)
    phi = make_structure_map(pi, rng.standard_normal(b.rep_dim))
    phi.save(d / "phi.json")
    phi.lam_block().save(d / "gamma.json")
    t0 = rng.standard_normal((b.rep_dim, b.rep_dim))
    problem = {"pi_prime": pi.values, "pi": pi.values,
               "delta": inner_derivation(pi, pi, t0).values}
    (d / "problem.json").write_text(json.dumps(
        {k: [[[[z.real, z.imag] for z in row] for row in m] for m in v]
         for k, v in problem.items()}))
    (d / "data.json").write_text(json.dumps(_group_data_raw()))
    return {name: str(d / f"{name}.json") for name in ("phi", "gamma", "problem", "data")}


# every verb that reads --tol, with its documented default
@pytest.mark.parametrize("argv, default", [
    (["validate", "fixture:Alg(S3)"], "1e-12"),
    (["cocycle-eval", "fixture:Alg(S3)", "{phi}", "--x", "L1", "--t", "1"], "1e-9"),
    (["gns", "fixture:Alg(S3)", "{gamma}"], "1e-9"),
    (["classify", "fixture:Alg(S3)", "{phi}"], "1e-10"),
    (["derivation", "solve", "fixture:Alg(S3)", "{problem}"], "1e-9"),
    (["chi-structure", "implement", "fixture:Alg(S3)", "{phi}", "counit"], "1e-8"),
    (["group-gen", "{data}"], "1e-10"),
    (["coboundary", "{data}"], "1e-8"),
    (["report", "--battery", "cocycle"], "1e-9"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_tol_reaches_every_checking_verb(alg_s3_inputs, argv, default, capsys):
    argv = [a.format(**alg_s3_inputs) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main(argv + ["--tol", default]) == 0
    assert capsys.readouterr().out == out
    # each input has a nonzero residual; classify reports FAIL and exits 0
    if argv[0] == "classify":
        assert main(argv + ["--tol", "0"]) == 0
        assert "FAIL" in capsys.readouterr().out
    else:
        assert main(argv + ["--tol", "0"]) == 1


@pytest.mark.parametrize("x, why", [
    ("nope", "unknown basis label 'nope'; basis labels: d0, d1, d2"),
    ("[[1,0],[0,0]]", "expected 3 coordinates"),
    ("[[1,0],[0,0],[0,0],[0,0]]", "expected 3 coordinates"),
    ("[[1,0],[NaN,0],[0,0]]", "finite"),
    ("[[1,0],[0,Infinity],[0,0]]", "finite"),
])
def test_x_not_fitting_the_bialgebra_is_usage_error(z3_file, tmp_path, x, why, capsys):
    gpath = tmp_path / "phi.json"
    Generator(bundled_fixtures()["C(Z3)"], 0.3 * np.ones((3, 2, 2))).save(gpath)
    with pytest.raises(SystemExit) as err:
        main(["cocycle-eval", z3_file, str(gpath), "--x", x, "--t", "0.9"])
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert "argument --x:" in msg and why in msg


@pytest.mark.parametrize("scale, code", [(1.0, 0), (1.5, 1)])
def test_validate_checks_rep2(tmp_path, scale, code, capsys):
    # rep2 is rep with the 2 x 2 block of every image scaled: a representation
    # only at scale 1
    data = bundled_fixtures()["Alg(S3)"].to_dict()
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(data))
    assert main(["validate", str(plain)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any("rep2:" in line for line in lines)
    data["rep2"] = {"blocks": data["rep"]["blocks"], "images": [
        blocks[:2] + [[[[scale * v for v in z] for z in row] for row in blocks[2]]]
        for blocks in data["rep"]["images"]]}
    path = tmp_path / "rep2.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == code
    out = capsys.readouterr().out.splitlines()
    assert out[:len(lines)] == lines
    rep2 = out[len(lines):]
    assert len(rep2) == len(lines)
    assert all(r.replace("rep2:", "", 1).split() == line.split()
               for r, line in zip(rep2, lines) if "representation" not in line)
    verdict = "PASS" if code == 0 else "FAIL"
    assert any(r.startswith(f"{verdict}  rep2:representation ") for r in rep2)


@pytest.mark.parametrize("form", ["json", "file"])
def test_chi_structure_chi_forms_agree(tmp_path, form, capsys):
    b = bundled_fixtures()["C(Z4)"]
    from qlevy.derivations import implemented_chi_structure
    chi = functional(b, b.counit)
    phi = implemented_chi_structure(OperatorMap(b, b.rep_images), chi,
                                    np.array([0.2, 0.1, 0.0, 0.4]))
    ppath = tmp_path / "phi.json"
    phi.save(ppath)
    argv = ["chi-structure", "implement", "fixture:C(Z4)", str(ppath)]
    assert main(argv + ["counit"]) == 0
    by_name = capsys.readouterr().out
    if form == "json":
        spec = json.dumps([[z.real, z.imag] for z in b.counit])
    else:
        spec = str(tmp_path / "chi.json")
        chi.save(spec)
    assert main(argv + [spec]) == 0
    assert capsys.readouterr().out == by_name


def test_semigroup_json_matches_csv(tmp_path, capsys):
    b = bundled_fixtures()["C(Z3)"]
    gpath = tmp_path / "gamma.json"
    functional(b, 0.5 * (np.eye(3)[1] - np.eye(3)[0])).save(gpath)
    argv = ["semigroup", "fixture:C(Z3)", str(gpath), "--t-grid", "0:1:5"]
    assert main(argv + ["--format", "csv"]) == 0
    header, *csv_rows = capsys.readouterr().out.strip().splitlines()
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == list(b.basis_labels)
    assert payload["t_grid"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert payload["rows"] == [[float(v) for v in row.split(",")] for row in csv_rows]
    assert header.split(",")[1:3] == ["d0_re", "d0_im"]


def test_semigroup_overflow_is_one_error_line(tmp_path, capsys):
    b = bundled_fixtures()["C(S3)"]
    gpath = tmp_path / "gamma.json"
    functional(b, 50.0 * (np.arange(b.dim) - 2.5)).save(gpath)
    assert main(["semigroup", "fixture:C(S3)", str(gpath), "--t-grid", "0:100:3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: semigroup value not finite at t = 50.0"]


def test_cocycle_eval_overflow_is_one_error_line(tmp_path, capsys):
    b = bundled_fixtures()["C(S3)"]
    vals = np.zeros((b.dim, 2, 2), dtype=complex)
    vals[:, 0, 0] = 50.0 * (np.arange(b.dim) - 2.5)
    gpath = tmp_path / "phi.json"
    Generator(b, vals).save(gpath)
    assert main(["cocycle-eval", "fixture:C(S3)", str(gpath), "--x", "d1", "--t", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: semigroup factor not finite at piece 0 on [0.0, 50.0)"]


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_cocycle_eval_with_no_finite_oracle_bound_is_one_error_line(tmp_path, capsys, scale):
    # the engine value is finite, but an infinite tail bound certifies nothing
    vals = np.zeros((3, 2, 2))
    vals[:, 0, 1] = [0.0, scale, -scale]
    gpath = tmp_path / "phi.json"
    Generator(bundled_fixtures()["C(Z3)"], vals).save(gpath)
    assert main(["cocycle-eval", "fixture:C(Z3)", str(gpath), "--x", "d1", "--t", "1",
                 "--f", "0.5:[[1,0]],1.0:[[-1,0]]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: simplex series tail bound at order 64 not finite"]


def test_gns_not_conditionally_positive_is_check_failure(tmp_path, capsys):
    # minus a structure-map corner is real but negative on the counit kernel
    b = bundled_fixtures()["Alg(S3)"]
    c = np.random.default_rng(0).standard_normal(b.rep_dim)
    corner = make_structure_map(OperatorMap(b, b.rep_images), c).lam_block()
    path = tmp_path / "gamma.json"
    functional(b, -corner.as_vector()).save(path)
    assert main(["gns", "fixture:Alg(S3)", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "not conditionally positive"
    assert payload["margin"] < 0


def test_classify_out_matches_printed_verdicts(alg_s3_inputs, tmp_path, capsys):
    out = tmp_path / "classify.json"
    argv = ["classify", "fixture:Alg(S3)", alg_s3_inputs["phi"]]
    assert main(argv + ["--tol", "0", "--out", str(out)]) == 0
    printed = dict(line.split(":")[0].split()[::-1]
                   for line in capsys.readouterr().out.splitlines())
    report = json.loads(out.read_text())
    assert printed == {k: "PASS" if e["holds"] else "FAIL" for k, e in report.items()}
    assert not all(e["holds"] for e in report.values())

import base64
import json

import numpy as np
import pytest

from qlevy.algebra import validate_bialgebra
from qlevy.cli import main, parse_steps
from qlevy.cocycle import Generator
from qlevy.convolution import OperatorMap, functional
from qlevy.derivations import inner_derivation
from qlevy.fixtures import bundled_fixtures, s3_table
from qlevy.generators import make_structure_map
from qlevy.harness import coboundary_data
from qlevy.linalg import maxabs


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
    assert payload["residual_checks"]["cocycle_identity"] <= 1e-9
    got = complex(*payload["value"])
    assert abs(got) > 0


@pytest.mark.parametrize("flag", ["--f", "--fp"])
@pytest.mark.parametrize("spec", ["garbage", "0.5", "0.5:[[0.3,", "x:[[0.3,0.1]]",
                                  "0.5:[[0.3,0.1]],0.2:[[0.1,0.0]]",
                                  "0.5:[[1,0]],0.9:[[1,0],[2,0]]", "0.5:%%%",
                                  "0.5:[0.3]", "0.5:[{\"re\": 1}]"])
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
    (["--tol", "inf", "validate", "{z3}"], "--tol"),
    (["--tol", "tiny", "report"], "--tol"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--seed", "-1"], "--seed"),
    (["montecarlo", "--mu", "[0.5,0.5]", "--seed", "1.5"], "--seed"),
    (["--seed", str(2 ** 64), "report"], "--seed"),
    (["report", "--seed", "-1"], "--seed"),
])
def test_out_of_range_number_is_usage_error(z3_file, argv, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main([a.format(z3=z3_file) for a in argv])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


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

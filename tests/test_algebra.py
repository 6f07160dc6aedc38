import dataclasses
import json
import re

import numpy as np
import pytest

from qlevy.algebra import (AxiomViolation, ParseError, assert_valid,
                           bialgebra_from_dict, build_function_algebra,
                           build_group_algebra, class_hypergroup_algebra,
                           is_positive, load_bialgebra, multiply, represent,
                           star, validate_bialgebra)
from qlevy.cli import main
from qlevy.fixtures import (bundled_fixtures, cyclic_table, d4_table,
                            s3_table, two_point_hypergroup)
from qlevy.linalg import dagger, maxabs

from conftest import random_element


@pytest.mark.parametrize("name", sorted(bundled_fixtures()))
def test_fixture_axioms(all_fixtures, name):
    for r in validate_bialgebra(all_fixtures[name]):
        assert r.passed, f"{name}: {r.name} residual {r.residual:.3e}"


def test_function_algebra_z2_coproduct():
    b = build_function_algebra(cyclic_table(2))
    # Delta(delta_e) = delta_e x delta_e + delta_g x delta_g
    expected = np.zeros((2, 2))
    expected[0, 0] = expected[1, 1] = 1.0
    assert maxabs(b.coproduct[0] - expected) == 0.0
    # counit is evaluation at the identity, exactly
    assert b.counit[0] == 1.0 and b.counit[1] == 0.0


def test_function_algebra_trivial_monoid():
    b = build_function_algebra(np.zeros((1, 1), dtype=int))
    assert b.dim == 1
    assert maxabs(b.coproduct[0] - np.ones((1, 1))) == 0.0


def test_function_algebra_rejects_non_associative():
    table = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative
    with pytest.raises(ValueError, match="associative"):
        build_function_algebra(table)


def test_function_algebra_rejects_missing_identity():
    table = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="identity"):
        build_function_algebra(table)


def test_group_algebra_group_like():
    b = build_group_algebra(s3_table())
    for g in range(6):
        expected = np.zeros((6, 6))
        expected[g, g] = 1.0
        assert maxabs(b.coproduct[g] - expected) == 0.0


def test_group_algebra_z2_characters():
    b = build_group_algebra(cyclic_table(2))
    assert b.rep_blocks == (1, 1)
    assert maxabs(b.rep_images[0] - np.eye(2)) < 1e-12
    assert maxabs(b.rep_images[1] - np.diag([1.0, -1.0])) < 1e-12


def test_group_algebra_s3_blocks():
    b = build_group_algebra(s3_table())
    assert b.rep_blocks == (1, 1, 2)


def test_group_algebra_cocommutative():
    b = build_group_algebra(d4_table())
    flipped = np.swapaxes(b.coproduct, 1, 2)
    assert maxabs(b.coproduct - flipped) == 0.0


def loop_s3_table():
    """S3's table as the index-dict loop over permutations builds it."""
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    idx = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = idx[tuple(p[q[k]] for k in range(3))]
    return table


def loop_d4_table():
    """D4's table as the index-dict loop over r^a s^b builds it."""
    elems = [(a, b) for b in range(2) for a in range(4)]
    idx = {e: i for i, e in enumerate(elems)}
    table = np.zeros((8, 8), dtype=int)
    for i, (a, b) in enumerate(elems):
        for j, (a2, b2) in enumerate(elems):
            sign = -1 if b else 1
            table[i, j] = idx[((a + sign * a2) % 4, (b + b2) % 2)]
    return table


@pytest.mark.parametrize("build, loop", [(s3_table, loop_s3_table), (d4_table, loop_d4_table)])
def test_group_tables_match_the_index_loop(build, loop):
    got, want = build(), loop()
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_group_algebra_rejects_monoid_without_inverses():
    table = np.array([[0, 1], [1, 1]])  # associative monoid, 1 not invertible
    with pytest.raises(ValueError, match="inverse"):
        build_group_algebra(table)


@pytest.mark.parametrize("name", sorted(bundled_fixtures()))
def test_element_arithmetic(all_fixtures, name):
    rng = np.random.default_rng(11)
    b = all_fixtures[name]
    x = random_element(rng, b)
    one = b.one()
    assert maxabs((one * x).coords - x.coords) < 1e-14
    assert maxabs((x * one).coords - x.coords) < 1e-14
    assert maxabs(star(star(x)).coords - x.coords) < 1e-13
    assert is_positive(star(x) * x)
    y = random_element(rng, b)
    lhs = represent(multiply(x, y))
    assert maxabs(lhs - represent(x) @ represent(y)) < 1e-12
    assert maxabs(represent(star(x)) - dagger(represent(x))) < 1e-12


def test_element_dimension_mismatch():
    fx = bundled_fixtures()
    x = fx["C(Z2)"].one()
    y = fx["C(Z3)"].one()
    with pytest.raises(ValueError, match="different bialgebras"):
        multiply(x, y)


def test_save_load_round_trip(tmp_path):
    b = bundled_fixtures()["Alg(S3)"]
    path = tmp_path / "s3.json"
    b.save(path)
    b2 = load_bialgebra(path)
    assert b2.structural_hash() == b.structural_hash()
    assert maxabs(b2.coproduct - b.coproduct) == 0.0
    assert maxabs(b2.rep_images - b.rep_images) < 1e-15
    # compact JSON, so that the C encoder writes it
    assert path.read_text(encoding="utf-8") == json.dumps(b.to_dict())


def test_load_names_broken_coassociativity(tmp_path):
    b = bundled_fixtures()["C(Z2)"]
    data = b.to_dict()
    data["coproduct"][0]["re"] += 1e-3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(AxiomViolation) as err:
        load_bialgebra(path)
    assert "OSC" in err.value.axiom or "counit" in err.value.axiom


# the checks that read each tensor; every one must fail on a non-finite entry
READS = {"mult": {"unit", "associativity", "star-antimultiplicative", "counit-character",
                  "representation"},
         "coproduct": {"OSC1-coassociativity", "OSC2-counit-property", "coproduct-unital",
                       "coproduct-completely-positive"}}


@pytest.mark.parametrize("field", sorted(READS))
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_entry_fails_every_check_reading_it(tmp_path, capsys, field, value):
    # json writes and reads Infinity and NaN; a tolerance scaled by an
    # infinite entry is infinite, and max() or min() drops a NaN, so without
    # the finiteness test these checks passed with residual inf, nan or 0
    data = bundled_fixtures()["Hyper(S3-classes)"].to_dict()
    data[field][0]["re"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with np.errstate(all="ignore"):
        assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAIL")}
    assert READS[field] <= failed, lines
    assert not [line for line in lines if re.match(r"PASS .*residual (inf|nan)", line)]


@pytest.mark.parametrize("field", sorted(READS))
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_entry_prints_no_warning(tmp_path, capsys, field, value):
    # no np.errstate here: the test configuration turns a RuntimeWarning into
    # an error, so one overflow or invalid-value warning fails the test
    data = bundled_fixtures()["Hyper(S3-classes)"].to_dict()
    data[field][0]["re"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    first = next(line.split()[1] for line in out.splitlines() if line.startswith("FAIL"))
    with pytest.raises(AxiomViolation) as exc:
        load_bialgebra(path)
    assert exc.value.axiom == first


def moved(b, field, by=1e-2):
    """b with the second entry of its mult or coproduct tensor moved by ``by``."""
    data = b.to_dict()
    data[field][1]["re"] += by
    return bialgebra_from_dict(data)


def test_assert_valid_stops_at_the_first_failure(tmp_path, monkeypatch):
    fx = bundled_fixtures()
    cases = [moved(fx["Alg(S3)"], "mult"), moved(fx["C(S3)"], "coproduct")]
    cases += [dataclasses.replace(b, kind="hyperbialgebra") for b in cases]
    wants = []
    for b in cases:
        first = next(r for r in validate_bialgebra(b) if not r.passed)
        wants.append((first.name, first.residual, first.where))
    assert {w[0] for w in wants} <= {"unit", "associativity", "OSC1-coassociativity",
                                     "OSC2-counit-property"}, wants

    def later_check(*args):
        raise AssertionError("a check after the first failure ran")

    # the checks that come after every structural one
    monkeypatch.setattr("qlevy.algebra._coproduct_choi_min_eig", later_check)
    monkeypatch.setattr("qlevy.algebra.representation_defect", later_check)
    for i, (b, want) in enumerate(zip(cases, wants)):
        path = tmp_path / f"moved{i}.json"
        b.save(path)
        for check in (lambda: assert_valid(b), lambda: load_bialgebra(path)):
            with pytest.raises(AxiomViolation) as exc:
                check()
            assert (exc.value.axiom, exc.value.residual, exc.value.where) == want


def near_singular_hypergroup(how, eps):
    """Hyper(S3-classes) with the image of its third basis element replaced
    by the second's, plus eps times its own ("shift") or times 1 + eps
    ("scale"): a representation whose block chart is singular (eps = 0, and
    every "scale") or near-singular."""
    b = bundled_fixtures()["Hyper(S3-classes)"]
    images = b.rep_images.copy()
    images[2] = images[1] + eps * b.rep_images[2] if how == "shift" else (1 + eps) * images[1]
    return dataclasses.replace(b, rep_images=images)


REP = ("representation", "representation-faithful")
CP_REP = ("coproduct-completely-positive",) + REP
EPSILONS = (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# the failing checks when every chart took the pseudo-inverse at RCOND: it
# cuts the chart's smallest singular value while eps <= 1e-12, and keeps it
# from 1e-11 on; the scaled charts are exactly singular
NEAR_SINGULAR = {("scale", eps): REP for eps in EPSILONS}
NEAR_SINGULAR.update({("shift", eps): REP for eps in EPSILONS[:4]})
NEAR_SINGULAR.update({("shift", eps): CP_REP for eps in EPSILONS[4:6]})
NEAR_SINGULAR.update({("shift", eps): CP_REP[:2] for eps in EPSILONS[6:]})


@pytest.mark.parametrize("how, eps", sorted(NEAR_SINGULAR))
def test_near_singular_chart_keeps_pinv_verdicts(how, eps):
    b = near_singular_hypergroup(how, eps)
    failed = tuple(r.name for r in validate_bialgebra(b) if not r.passed)
    assert failed == NEAR_SINGULAR[how, eps]
    with pytest.raises(AxiomViolation) as exc:
        assert_valid(b)
    assert exc.value.axiom == failed[0]
    if eps == 0.0:
        assert exc.value.residual == 1.0


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_bialgebra(path)


def test_load_rejects_inconsistent_sizes():
    b = bundled_fixtures()["C(Z2)"]
    data = b.to_dict()
    data["unit"] = data["unit"][:1]
    with pytest.raises(ParseError):
        bialgebra_from_dict(data)


def test_non_faithful_representation_rejected():
    b = bundled_fixtures()["C(Z2)"]
    data = b.to_dict()
    # send both basis elements to the same block image
    data["rep"]["images"][1] = data["rep"]["images"][0]
    with pytest.raises(AxiomViolation):
        assert_valid(bialgebra_from_dict(data))


def test_hypergroup_choi_positive():
    b = class_hypergroup_algebra(s3_table())
    assert b.kind == "hyperbialgebra"
    results = {r.name: r for r in validate_bialgebra(b)}
    assert results["coproduct-completely-positive"].passed
    # the coproduct is genuinely non-multiplicative here
    lhs = np.einsum("ijm,mab->ijab", b.mult, b.coproduct)
    rhs = np.einsum("ipq,jrs,pra,qsb->ijab", b.coproduct, b.coproduct,
                    b.mult, b.mult)
    assert maxabs(lhs - rhs) > 1e-2


def test_two_point_hypergroup_family():
    assert_valid(two_point_hypergroup(0.5))
    with pytest.raises(AxiomViolation) as err:
        assert_valid(two_point_hypergroup(1.4))
    assert err.value.axiom == "coproduct-completely-positive"
    assert err.value.residual > 0.1


def test_choi_check_on_matrix_block_algebra(all_fixtures):
    # a *-homomorphic coproduct is in particular CP: flag the S3 group
    # algebra as a hyperbialgebra and the Choi test must pass through the
    # genuine 2x2 block of its representation
    import dataclasses
    bh = dataclasses.replace(all_fixtures["Alg(S3)"], kind="hyperbialgebra")
    results = {r.name: r for r in validate_bialgebra(bh)}
    assert results["coproduct-completely-positive"].passed


def test_unknown_kind_rejected(all_fixtures):
    import dataclasses
    bad = dataclasses.replace(all_fixtures["C(Z2)"], kind="mystery")
    with pytest.raises(AxiomViolation, match="kind"):
        assert_valid(bad)


def test_function_algebra_point_evaluations_are_characters(all_fixtures):
    b = all_fixtures["C(S3)"]
    char = np.einsum("ijk,k->ij", b.mult, b.counit)
    assert maxabs(char - np.outer(b.counit, b.counit)) == 0.0


def test_s3_irrep_characters_match_character_table(all_fixtures):
    # independent oracle: the S3 character table over the fixed enumeration
    # [id, (01), (02), (12), (012), (021)]
    b = all_fixtures["Alg(S3)"]
    parity = np.array([1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
    table = {
        1: {tuple(np.ones(6)), tuple(parity)},
        2: {tuple([2.0, 0.0, 0.0, 0.0, -1.0, -1.0])},
    }
    ofs = 0
    for n in b.rep_blocks:
        chars = tuple(np.round(np.trace(b.rep_images[g][ofs:ofs + n, ofs:ofs + n]).real, 9)
                      for g in range(6))
        imag = max(abs(np.trace(b.rep_images[g][ofs:ofs + n, ofs:ofs + n]).imag)
                   for g in range(6))
        assert imag < 1e-10
        assert chars in table[n]
        ofs += n


@pytest.mark.parametrize("vals, message", [
    # 0, 1, ..., 5 split the 2-dimensional eigenspaces of S3's commutant into
    # lines that carry no representation; the least gap is 1 / 5 (relative)
    (np.arange(6.0), r"representation residual .*; smallest eigen-gap between clusters 2\.00e-01"),
    # one cluster: a single 6-dimensional block
    (np.zeros(6), r"block sizes \[6\] inconsistent with \|G\|=6; "
                  r"smallest eigen-gap between clusters inf"),
], ids=["lines", "one-cluster"])
def test_irrep_split_fails_loudly(monkeypatch, vals, message):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (vals, eigh(x)[1]))
    with pytest.raises(RuntimeError, match="irrep decomposition failed: " + message):
        build_group_algebra(s3_table())


def test_rep2_field_validated(tmp_path, all_fixtures):
    b = all_fixtures["C(Z2)"]
    data = b.to_dict()
    # a second faithful representation: the two points swapped
    data["rep2"] = {"blocks": [1, 1],
                    "images": [[[[[0.0, 0.0]]], [[[1.0, 0.0]]]],
                               [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]]}
    path = tmp_path / "two_reps.json"
    path.write_text(json.dumps(data))
    load_bialgebra(path)
    data["rep2"]["images"][1] = data["rep2"]["images"][0]  # not faithful
    path.write_text(json.dumps(data))
    with pytest.raises(AxiomViolation):
        load_bialgebra(path)


def test_element_rejects_non_finite(all_fixtures):
    b = all_fixtures["C(Z2)"]
    with pytest.raises(ValueError, match="finite"):
        b.element([1.0, np.nan])

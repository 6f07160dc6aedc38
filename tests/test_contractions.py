"""Contractions over the structure constants as reshaped matrix products,
against the ``einsum`` each one replaced.

Each reference below is the package routine with its product put back as
the einsum, compiled from the routine's own source, so the two differ in
that one expression.  On every bundled fixture the star matrix is a
permutation and each entry of these sums has a single nonzero term, so the
product gives the einsum's bits.  Through a complex change of basis the sums
have many terms; there the two agree within 8 d eps times the largest entry
of the sum over absolute values (for ``gns_construct``, whose product passes
through its chart, times the largest entry of its generator).
"""

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy import algebra, generators
from qlevy.convolution import OperatorMap, counit_map
from qlevy.fixtures import bundled_fixtures
from qlevy.generators import SchurmannTriple, make_structure_map

from conftest import random_generator, random_operator_map
from test_basis_change import conditioned_change


def with_einsum(func, new, old):
    """``func`` with the expression ``new`` of its source replaced by ``old``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(new) == 1, new
    scope = dict(func.__globals__)
    exec(source.replace(new, old), scope)
    return scope[func.__name__]


def absolute(spec, *operands):
    """The largest entry of the einsum ``spec`` over absolute values."""
    return float(np.max(np.einsum(spec, *map(np.abs, operands))))


def non_unitary_rep(b, rng):
    """A rep_images A (.) A^-1 for a non-unitary A: a unital homomorphism
    whose only defect is the star term."""
    n = b.rep_dim
    a = np.eye(n) + 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return a[None, :, :] @ b.rep_images @ np.linalg.inv(a)[None, :, :]


def relation_inputs(b, rng):
    c = rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim)
    for phi in (make_structure_map(OperatorMap(b, b.rep_images), c),
                random_generator(rng, b, 2)):
        yield (phi, b.counit), absolute("mi,mjk,kab->ijab", b.star_matrix, b.mult, phi.values)


def sesquilinear_inputs(b, rng):
    lam = random_operator_map(rng, b, 1)
    triple = SchurmannTriple(pi=random_operator_map(rng, b, 2),
                             delta=random_operator_map(rng, b, 2, 1), lam=lam)
    yield (triple,), absolute("mi,mjk,k->ij", b.star_matrix, b.mult, lam.as_vector())


def derivation_inputs(b, rng):
    delta = random_operator_map(rng, b, b.rep_dim, 1)
    yield ((OperatorMap(b, b.rep_images), counit_map(b), delta),
           absolute("ijk,kab->ijab", b.mult, delta.values))


def gns_inputs(b, rng):
    c = rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim)
    gamma = make_structure_map(OperatorMap(b, b.rep_images), c).lam_block()
    yield (gamma,), float(np.max(np.abs(generators.gns_construct(gamma)[1].values)))


def representation_inputs(b, rng):
    images = non_unitary_rep(b, rng)
    yield (b, images, (b.rep_dim,)), absolute("mk,mab->kab", b.star_matrix, images)


def conjugate_inputs(b, rng):
    phi = random_operator_map(rng, b, 2, 3)
    yield (phi,), absolute("mk,mab->kab", b.star_matrix, phi.values)


# name -> (routine, its product, the einsum it replaced, inputs, outputs as arrays)
CASES = {
    "relation_residual": (
        generators._relation_residual,
        "lhs = (star_mult @ phi.values.reshape(d, p * p)).reshape(d, d, p, p)",
        'lhs = np.einsum("mi,mjk,kab->ijab", src.star_matrix, src.mult, phi.values)',
        relation_inputs, lambda out: [out]),
    "schurmann_sesquilinear": (
        SchurmannTriple.residuals,
        "lam_xy = star.T @ (src.mult @ lv)",
        'lam_xy = np.einsum("mi,mjk,k->ij", star, src.mult, lv)',
        sesquilinear_inputs, lambda out: [out["sesquilinear"]]),
    "derivation_defect": (
        generators.derivation_defect,
        "lhs = (pi.source.mult.reshape(d * d, d) @ dv.reshape(d, -1)).reshape(d, d, *dv.shape[1:])",
        'lhs = np.einsum("ijk,kab->ijab", pi.source.mult, dv)',
        derivation_inputs, lambda out: [out]),
    "gns_construct": (
        generators.gns_construct,
        "prod = src.mult.transpose(0, 2, 1) @ kb",
        'prod = np.einsum("ajk,jc->akc", src.mult, kb)',
        gns_inputs, lambda out: [out[0].pi.values, out[0].delta.values, out[1].values]),
    "representation_defect": (
        algebra.representation_defect,
        "(src.star_matrix.T @ images.reshape(d, -1)).reshape(images.shape)",
        'np.einsum("mk,mab->kab", src.star_matrix, images)',
        representation_inputs, lambda out: [out]),
    "conjugate_map": (
        OperatorMap.conjugate_map,
        "dagger(starred.reshape(self.values.shape))",
        'np.einsum("mk,mab->kba", np.conjugate(self.source.star_matrix), np.conjugate(self.values))',
        conjugate_inputs, lambda out: [out.values]),
}


def compared(case, b, seed):
    """(routine's arrays, reference's arrays, scale) for each input of a case."""
    routine, new, old, inputs, arrays = CASES[case]
    reference = with_einsum(routine, new, old)
    for args, scale in inputs(b, np.random.default_rng(seed)):
        yield arrays(routine(*args)), arrays(reference(*args)), scale


@pytest.mark.parametrize("name", sorted(bundled_fixtures()))
@pytest.mark.parametrize("case", sorted(CASES))
def test_contraction_matches_its_einsum_bit_for_bit(case, name):
    for got, want, _ in compared(case, bundled_fixtures()[name], 0):
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (got, want)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(name=st.sampled_from(sorted(bundled_fixtures())), seed=st.integers(0, 2 ** 16))
def test_contraction_agrees_with_its_einsum_after_a_basis_change(case, name, seed):
    b = conditioned_change(bundled_fixtures()[name], seed)
    tol = 8 * b.dim * np.finfo(float).eps
    for got, want, scale in compared(case, b, seed):
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= tol * scale, (case, g, w)

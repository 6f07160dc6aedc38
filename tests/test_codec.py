"""The JSON codec against the scalar loops it replaced, and its input checks.

``Bialgebra.to_dict``, ``OperatorMap.to_dict`` and ``bialgebra_from_dict``
encode and decode whole arrays at once.  The reference below writes and
reads one scalar at a time, as the codec once did; the two must agree on
every byte written and every bit read, signs of zeros included.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.algebra import ParseError, bialgebra_from_dict, load_bialgebra
from qlevy.convolution import OperatorMap, load_operator_map
from qlevy.fixtures import bundled_fixtures
from qlevy.linalg import block_diag, split_blocks

FIXTURES = bundled_fixtures()


# -- the scalar reference -------------------------------------------------------

def c2j(z):
    z = complex(z)
    return [z.real, z.imag]


def j2c(pair):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ParseError(f"expected [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])


def mat2j(m):
    return [[c2j(z) for z in row] for row in np.asarray(m)]


def j2mat(rows):
    return np.array([[j2c(z) for z in row] for row in rows], dtype=complex)


def loop_entries(t, axes):
    out = []
    for idx in np.argwhere(t).tolist():
        at = dict(zip(axes, idx))
        v = t[tuple(idx)]
        out.append({"i": at["i"], "j": at["j"], "k": at["k"], "re": v.real, "im": v.imag})
    return out


def loop_to_dict(b):
    return {
        "dim": b.dim,
        "basis": list(b.basis_labels),
        "unit": [c2j(z) for z in b.unit],
        "mult": loop_entries(b.mult, "ijk"),
        "star_matrix": mat2j(b.star_matrix),
        "counit": [c2j(z) for z in b.counit],
        "coproduct": loop_entries(b.coproduct, "kij"),
        "rep": {"blocks": list(b.rep_blocks),
                "images": [[mat2j(x) for x in split_blocks(img, b.rep_blocks)]
                           for img in b.rep_images]},
        "kind": b.kind,
    }


def loop_hash(b):
    payload = json.dumps(loop_to_dict(b), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def loop_map_dict(phi):
    return {"source_hash": loop_hash(phi.source), "p": phi.p, "q": phi.q,
            "values": [mat2j(m) for m in phi.values]}


def loop_from_dict(data):
    d = int(data["dim"])
    mult = np.zeros((d, d, d), dtype=complex)
    for e in data["mult"]:
        mult[e["i"], e["j"], e["k"]] += complex(e["re"], e["im"])
    coproduct = np.zeros((d, d, d), dtype=complex)
    for e in data["coproduct"]:
        coproduct[e["k"], e["i"], e["j"]] += complex(e["re"], e["im"])
    return {"unit": np.array([j2c(z) for z in data["unit"]], dtype=complex),
            "counit": np.array([j2c(z) for z in data["counit"]], dtype=complex),
            "star_matrix": j2mat(data["star_matrix"]), "mult": mult, "coproduct": coproduct,
            "rep_images": np.array([block_diag([j2mat(m) for m in per_basis])
                                    for per_basis in data["rep"]["images"]])}


def assert_same_bits(b, want):
    for field, value in want.items():
        got = getattr(b, field)
        assert got.dtype == value.dtype and got.shape == value.shape, field
        assert got.tobytes() == value.tobytes(), field


# -- bytes and bits against the reference ------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_saved_bytes_match_scalar_loops(tmp_path, name):
    b = FIXTURES[name]
    rng = np.random.default_rng(len(name))
    phi = OperatorMap(b, rng.standard_normal((b.dim, 2, 3))
                      + 1j * rng.standard_normal((b.dim, 2, 3)))
    bpath, ppath = tmp_path / "b.json", tmp_path / "phi.json"
    b.save(bpath)
    phi.save(ppath)
    assert bpath.read_text(encoding="utf-8") == json.dumps(loop_to_dict(b))
    assert ppath.read_text(encoding="utf-8") == json.dumps(loop_map_dict(phi))
    assert b.structural_hash() == loop_hash(b)
    data = json.loads(bpath.read_text(encoding="utf-8"))
    assert_same_bits(bialgebra_from_dict(data), loop_from_dict(data))
    assert load_operator_map(ppath, b).values.tobytes() == phi.values.tobytes()


# entries that exercise the float printer and the signs of zeros
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 1e-300, -3.3e17,
                         0.1, 2.0 / 3.0, np.pi])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(FIXTURES)), data=st.data())
def test_permuted_bases_and_signed_zeros_match_scalar_loops(name, data):
    b = FIXTURES[name]
    d, n = b.dim, b.rep_dim
    p = np.array(data.draw(st.permutations(range(d))))

    def values(shape):
        size = int(np.prod(shape))
        parts = data.draw(st.lists(PARTS, min_size=2 * size, max_size=2 * size))
        return np.array(parts).view(complex).reshape(shape)

    # the basis renamed by p, every nonzero entry replaced by a drawn value
    # (zeros stay zero, so the sparse entry lists keep their shape), and dense
    # fields drawn whole; none of this needs to be a valid bialgebra
    mult = b.mult[np.ix_(p, p, p)]
    coproduct = b.coproduct[np.ix_(p, p, p)]
    mask = b.rep_images[p] != 0
    b2 = dataclasses.replace(
        b, mult=np.where(mult != 0, values(mult.shape), 0),
        coproduct=np.where(coproduct != 0, values(coproduct.shape), 0),
        unit=values((d,)), counit=values((d,)), star_matrix=values((d, d)),
        rep_images=np.where(mask, values((d, n, n)), 0))
    phi = OperatorMap(b2, values((d, 2, 1)))
    assert json.dumps(b2.to_dict()) == json.dumps(loop_to_dict(b2))
    assert json.dumps(phi.to_dict()) == json.dumps(loop_map_dict(phi))
    assert b2.structural_hash() == loop_hash(b2)
    raw = json.loads(json.dumps(b2.to_dict()))
    assert_same_bits(bialgebra_from_dict(raw), loop_from_dict(raw))


# -- malformed files ------------------------------------------------------------------

def _set(data, path, value):
    *head, last = path
    for key in head:
        data = data[key]
    data[last] = value


# each damage to a valid C(Z2) file, and the words the error must contain
DAMAGES = {
    "string dim": (("dim",), "2", "dim must be an integer"),
    "float dim": (("dim",), 2.9, "dim must be an integer"),
    "boolean dim": (("dim",), True, "dim must be an integer"),
    "repeated label": (("basis",), ["a", "a"], "basis must be a list of distinct strings"),
    "number label": (("basis", 1), 1, "basis must be a list of distinct strings"),
    "negative mult index": (("mult", 0, "i"), -1, "mult entry index 'i'"),
    "mult index = dim": (("mult", 1, "j"), 2, "mult entry index 'j'"),
    "negative coproduct index": (("coproduct", 0, "k"), -2, "coproduct entry index 'k'"),
    "boolean index": (("mult", 0, "i"), True, "mult entry index 'i'"),
    "float index": (("coproduct", 1, "j"), 1.0, "coproduct entry index 'j'"),
    "string index": (("mult", 0, "k"), "0", "mult entry index 'k'"),
    "zero block size": (("rep", "blocks"), [0, 2], "rep.blocks"),
    "negative block size": (("rep", "blocks"), [3, -1], "rep.blocks"),
    "boolean block size": (("rep", "blocks"), [True, True], "rep.blocks"),
    "no blocks": (("rep", "blocks"), [], "rep.blocks"),
    "string in a pair": (("unit", 0), ["1", "0"], "[re, im] pairs"),
    "long pair": (("counit", 1), [1.0, 0.0, 0.0], "[re, im] pairs"),
    "short pair": (("star_matrix", 0, 1), [0.0], "[re, im] pairs"),
    "number for a pair": (("unit", 1), 1.0, "[re, im] pairs"),
    "null in a pair": (("counit", 0), [None, 0.0], "[re, im] pairs"),
    "string entry value": (("mult", 0, "re"), "1", "[re, im] pairs"),
    "one block too many": (("rep", "images", 0), [[[[1.0, 0.0]]]] * 3,
                           "inconsistent with block sizes"),
    "blocks of the wrong size": (("rep", "blocks"), [2, 1], "inconsistent with block sizes"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_malformed_bialgebra_file_names_its_field(tmp_path, damage):
    path, value, words = DAMAGES[damage]
    data = FIXTURES["C(Z2)"].to_dict()
    _set(data, path, value)
    with pytest.raises(ParseError) as err:
        bialgebra_from_dict(data)
    assert words in str(err.value)
    # through a file, the same error names the file too
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="malformed bialgebra file") as err:
        load_bialgebra(file)
    assert words in str(err.value)


def test_duplicate_entries_add_up():
    data = FIXTURES["C(Z2)"].to_dict()
    entry = data["mult"][0]
    data["mult"] += [dict(entry, re=0.25, im=-0.5), dict(entry, re=-0.0, im=0.5)]
    b = bialgebra_from_dict(data)
    at = (entry["i"], entry["j"], entry["k"])
    assert b.mult[at] == complex(entry["re"], entry["im"]) + complex(0.25, -0.5) + 0.5j

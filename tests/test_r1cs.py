import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from veil.field import DEFAULT_FIELD, field_by_name
from veil.gadgets import Builder, lc_of
from veil.r1cs import MAGIC_R1CS, ConstraintSystem


def small_system():
    # x * y = z with public x
    bld = Builder(DEFAULT_FIELD)
    x = bld.alloc_public()
    y = bld.alloc()
    z = bld.alloc()
    bld.enforce(lc_of(x), lc_of(y), lc_of(z), "product")
    p = bld.p
    bld.hint([z], [lc_of(x), lc_of(y)], lambda v: [(v[0] * v[1]) % p])
    return bld.finish(), x, y, z


def digest(cs):
    return hashlib.sha256(cs.serialize()).digest()


def test_witness_generation_and_check():
    cs, x, y, z = small_system()
    wit = cs.generate_witness({x: 6, y: 7})
    assert wit[z] == 42
    assert cs.check(wit) is None
    wit[z] = 41
    idx, tag = cs.check(wit)
    assert tag == "product"


def test_empty_system_trivially_satisfiable():
    cs = ConstraintSystem(DEFAULT_FIELD)
    wit = cs.generate_witness({})
    assert wit == [1]
    assert cs.check(wit) is None


def test_serialize_roundtrip_and_digest():
    cs, *_ = small_system()
    blob = cs.serialize()
    back = ConstraintSystem.deserialize(blob)
    assert back.serialize() == blob
    assert back.n_vars == cs.n_vars
    assert back.n_public == cs.n_public
    assert back.constraints == cs.constraints
    assert digest(cs) == digest(back)


def test_digest_changes_with_coefficients():
    cs1, *_ = small_system()
    cs2, *_ = small_system()
    assert digest(cs1) == digest(cs2)
    a, b, c = cs2.constraints[0]
    cs2.constraints[0] = (tuple((i, v + 1) for i, v in a), b, c)
    assert digest(cs1) != digest(cs2)


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        ConstraintSystem.deserialize(b"NOPE" + b"\x00" * 32)


def test_big_coefficients_roundtrip():
    f = field_by_name("bn254")
    cs = ConstraintSystem(f)
    cs.n_vars = 2
    big = f.p - 1
    cs.constraints.append((((0, big), (1, 123456789)), ((0, 1),), ((1, big),)))
    cs.tags.append("")
    back = ConstraintSystem.deserialize(cs.serialize())
    assert back.constraints == cs.constraints


def test_public_prefix_allocation_discipline():
    bld = Builder(DEFAULT_FIELD)
    bld.alloc_public(3)
    bld.alloc(2)
    with pytest.raises(AssertionError):
        bld.alloc_public()


def reference_serialize(cs):
    """The canonical encoding, one integer at a time."""
    out = bytearray(MAGIC_R1CS)
    name = cs.field.name.encode()
    out.append(len(name))
    out.extend(name)

    def put(v):
        raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
        assert len(raw) < 256
        out.append(len(raw))
        out.extend(raw)

    put(cs.n_vars)
    put(cs.n_public)
    put(len(cs.constraints))
    for a, b, c in cs.constraints:
        for lc in (a, b, c):
            put(len(lc))
            for idx, coeff in lc:
                put(idx)
                put(coeff)
    return bytes(out)


@st.composite
def systems(draw):
    field = field_by_name(draw(st.sampled_from(["t64", "bn254"])))
    n_vars = draw(st.one_of(st.integers(1, 4), st.integers(1, 300),
                            st.integers(2 ** 16 - 2, 2 ** 16 + 300)))
    wire = st.one_of(st.integers(0, n_vars - 1),
                     st.integers(max(0, n_vars - 3), n_vars - 1))
    coeff = st.one_of(st.just(field.p - 1), st.integers(0, 3),
                      st.integers(0, field.p - 1))
    lc = st.lists(st.tuples(wire, coeff), max_size=8).map(tuple)
    constraints = draw(st.lists(st.tuples(lc, lc, lc), max_size=6))
    return ConstraintSystem(field, n_vars, draw(st.integers(1, n_vars)),
                            constraints, [""] * len(constraints))


def _edge_system(name):
    """Empty combinations, one longer than `n_vars`, wires at and above 2^16
    and the coefficient p - 1."""
    field = field_by_name(name)
    p = field.p
    small = ConstraintSystem(field, 2, 1, [((), ((0, 1), (1, p - 1), (1, 2)), ())])
    big = ConstraintSystem(field, 2 ** 16 + 2, 2, [
        (((2 ** 16, p - 1), (2 ** 16 + 1, 1)), ((0, 1),), ((2 ** 16 - 1, 7),))])
    return small, big


@settings(max_examples=150, deadline=None)
@given(systems())
@example(_edge_system("t64")[0])
@example(_edge_system("t64")[1])
@example(_edge_system("bn254")[0])
@example(_edge_system("bn254")[1])
def test_serialize_matches_reference_encoder(cs):
    assert cs.serialize() == reference_serialize(cs)

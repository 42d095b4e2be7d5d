"""The circuit builder's fast paths against the generic formulas they
replace, and the collector pause around lowering.

Each reference expression is written out here, so a fast path that drifts
from the generic construction fails even where the constraint system pins
happen not to reach."""
import gc

import pytest
from hypothesis import given, settings, strategies as st

from veil import compiler
from veil.compiler import BuildSettings, compile_source
from veil.field import field_by_name
from veil.gadgets import Builder, lc_add, lc_scale, lc_sub

from conftest import load_source

FIELDS = ("t64", "bn254")
N_WIRES = 8  # private wires 1..8 allocated before each gate


def ref_freeze(lc, p):
    return tuple(sorted((k, v % p) for k, v in lc.items() if v % p))


def coefficients(p):
    return st.one_of(
        st.sampled_from([0, 1, -1, 2, p - 1, p, p + 1, -p, 2 * p, -3 * p]),
        st.integers(-3 * p, 3 * p),
        st.integers(-5, 5).map(lambda k: k * p),
        st.integers(p, 1 << 300))


@pytest.mark.parametrize("field_name", FIELDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_freeze_matches_reference(field_name, data):
    p = field_by_name(field_name).p
    lc = data.draw(st.dictionaries(st.integers(0, 50), coefficients(p),
                                   max_size=6))
    assert Builder(field_by_name(field_name))._freeze(lc) == ref_freeze(lc, p)


def bits_strategy(wires):
    """One bit combination: a wire, wire 0, the constants 0 and 1, a negated
    bit or a doubled wire."""
    return st.one_of(
        wires.map(lambda w: {w: 1}),
        st.just({0: 1}),
        st.just({}),
        wires.map(lambda w: {0: 1, w: -1}),
        wires.map(lambda w: {w: 2}))


def bit_pairs():
    wires = st.integers(1, N_WIRES)
    same_wire = wires.map(lambda w: ({w: 1}, {w: 1}))
    return st.lists(st.one_of(st.tuples(bits_strategy(wires), bits_strategy(wires)),
                              same_wire),
                    min_size=1, max_size=6)


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("op", ("&", "|", "^"))
@settings(max_examples=100, deadline=None)
@given(pairs=bit_pairs())
def test_bit_gate_matches_generic_formulas(field_name, op, pairs):
    f = field_by_name(field_name)
    p = f.p
    bld = Builder(f)
    bld.alloc(N_WIRES)
    xbits = [x for x, _ in pairs]
    ybits = [y for _, y in pairs]
    x, y = Builder.recompose(xbits), Builder.recompose(ybits)
    first = bld.cs.n_vars
    out = bld.bit_gate(op, xbits, ybits, x, y, "t")

    expected = []
    for i, (xb, yb) in enumerate(pairs):
        z = {first + i: 1}
        if op == "^":
            a, b, c = lc_scale(xb, 2), yb, lc_sub(lc_add(xb, yb), z)
        elif op == "&":
            a, b, c = xb, yb, z
        else:
            a, b, c = xb, yb, lc_sub(lc_add(xb, yb), z)
        expected.append((ref_freeze(a, p), ref_freeze(b, p), ref_freeze(c, p)))
    assert bld.cs.constraints == expected
    assert bld.cs.tags == ["t"] * len(pairs)
    assert out == [{first + i: 1} for i in range(len(pairs))]
    (hint,) = bld.cs.hints
    assert hint.outs == tuple(range(first, first + len(pairs)))
    assert hint.ins == (ref_freeze(x, p), ref_freeze(y, p))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.dictionaries(st.integers(0, 20),
                                     st.integers(-3, 3) | st.integers(-(1 << 70), 1 << 70),
                                     max_size=4),
                     max_size=40))
def test_recompose_matches_scaled_sum(bits):
    expected = lc_add(*(lc_scale(b, 1 << i) for i, b in enumerate(bits))) if bits else {}
    got = Builder.recompose(bits)
    assert got == expected
    assert list(got) == list(expected)  # same insertion order as well


@pytest.mark.parametrize("field_name", FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_is_zero_hint_inverts(field_name, data):
    f = field_by_name(field_name)
    d = data.draw(st.integers(0, f.p - 1) | st.sampled_from([0, 1, f.p - 1]))
    bld = Builder(f)
    x = bld.alloc_public()
    inv = x + 1  # is_zero allocates the inverse wire first
    z = bld.is_zero({x: 1})
    w = bld.cs.generate_witness({x: d})
    assert bld.cs.check(w) is None
    assert w[next(iter(z))] == (d == 0)
    assert (d * w[inv]) % f.p == (d != 0)


@pytest.mark.parametrize("enabled", (True, False))
@pytest.mark.parametrize("raises", (False, True))
def test_compile_restores_collector_state(monkeypatch, enabled, raises):
    states_in_lower = []
    real_lower = compiler.lower

    def lower(*args, **kwargs):
        states_in_lower.append(gc.isenabled())
        if raises:
            raise RuntimeError("lowering failed")
        return real_lower(*args, **kwargs)

    monkeypatch.setattr(compiler, "lower", lower)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if raises:
            with pytest.raises(RuntimeError):
                compile_source(load_source("token"), BuildSettings())
        else:
            compile_source(load_source("token"), BuildSettings())
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
    assert states_in_lower and not any(states_in_lower)

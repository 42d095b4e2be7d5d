"""The shape-aware `ConstraintSystem.check` against a plain loop written
here, over small random systems built from booleanity constraints and bit
gates; `classify` against the shape rules written here, and on hand-made
shapes."""
from collections import deque
from operator import and_, or_, xor

import pytest
from hypothesis import example, given, settings, strategies as st

from veil.field import field_by_name
from veil.r1cs import ConstraintSystem, classify

T64 = field_by_name("t64")
BN254 = field_by_name("bn254")


def plain_check(cs, w):
    p = cs.field.p
    for i, (a, b, c) in enumerate(cs.constraints):
        av = sum(k * w[j] for j, k in a)
        bv = sum(k * w[j] for j, k in b)
        cv = sum(k * w[j] for j, k in c)
        if (av * bv - cv) % p:
            return i, cs.tags[i]
    return None


def shape(abc, p):
    """The class of one constraint by its shape alone: "bit", "and", "xor",
    "or" or None, with its (x, y, z) wires for a gate."""
    a, b, c = abc
    if len(a) != 1 or len(b) != 1:
        return None, None
    (x, ca), (y, cb) = a[0], b[0]
    if x == y and a == b == c and ca == 1:
        return "bit", x
    if x == y or cb != 1:
        return None, None
    if len(c) == 1 and ca == 1 and c[0][1] == 1:
        return "and", (x, y, c[0][0])
    if (len(c) == 3 and ca in (1, 2) and c[:2] == tuple(
            (v, 1) for v in sorted((x, y))) and c[2][1] == p - 1
            and c[2][0] not in (x, y)):
        return "xor" if ca == 2 else "or", (x, y, c[2][0])
    return None, None


def assert_classified(constraints, p):
    """`classify` took exactly the constraints of a class shape whose inputs
    were known bits when reached, in order."""
    bits, gates, other = classify(constraints, p)
    left = {"bit": deque(bits),
            **{name: deque(zip(*wires)) for name, wires in gates.items()}}
    others = deque(other)
    known = set()
    for i, abc in enumerate(constraints):
        kind, wires = shape(abc, p)
        if kind == "bit":
            expect = True
            known.add(wires)
        elif kind is not None and {wires[0], wires[1]} <= known:
            expect = True
            known.add(wires[2])
        else:
            expect = False
        if not expect:
            assert others.popleft() == i, (i, abc)
        else:
            assert left[kind].popleft() == wires, (i, abc)
    assert not others and not any(left.values())


def bit(b):
    t = ((b, 1),)
    return t, t, t


def gate(kind, x, y, z, p):
    """The constraint `Builder.bit_gate` makes for two distinct wires; for
    x == y or z in {x, y} the same formula with the repeated wires."""
    if kind == "and":
        return ((x, 1),), ((y, 1),), ((z, 1),)
    lo, hi = sorted((x, y))
    return (((x, 2 if kind == "xor" else 1),), ((y, 1),),
            ((lo, 1), (hi, 1), (z, p - 1)))


def system(field, n_vars, constraints):
    return ConstraintSystem(field, n_vars, 1, list(constraints),
                            [f"c{i}" for i in range(len(constraints))])


@st.composite
def constraints(draw, field, n_vars):
    """Booleanity constraints, bit gates and other constraints; gate inputs
    are mostly wires that earlier constraints made bits, so many gates are
    classified."""
    p = field.p
    wire = st.integers(0, n_vars - 1)
    bits = draw(st.lists(wire, max_size=4, unique=True))
    out = [bit(b) for b in bits]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["bit", "and", "xor", "or", "other"]))
        if kind == "bit":
            abc = bit(draw(wire))
        elif kind == "other":
            coeff = st.sampled_from([0, 1, 2, 3, p - 1, p - 2])
            lc = st.lists(st.tuples(wire, coeff), max_size=3).map(tuple)
            abc = (draw(lc), draw(lc), draw(lc))
        else:
            # mostly known bits: three in four draws, once there are any
            inputs = [draw(st.sampled_from(bits))
                      if bits and draw(st.integers(0, 3)) else draw(wire)
                      for _ in "xy"]
            fresh = sorted(set(range(n_vars)) - {w for abc in out for lc in abc
                                                  for w, _ in lc})
            z = draw(st.sampled_from(fresh) if fresh and draw(st.booleans())
                     else wire)
            abc = gate(kind, *inputs, z, p)
        if draw(st.integers(0, 3)) == 0:
            # one coefficient changed: 2 and p - 1 in other positions
            side, k = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            lcs = list(abc)
            if k < len(lcs[side]):
                terms = list(lcs[side])
                terms[k] = (terms[k][0],
                            draw(st.sampled_from([1, 2, 0, p - 1, p + 1])))
                lcs[side] = tuple(terms)
            abc = tuple(lcs)
        if kind != "other":
            bits.append(abc[2][-1][0])
        out.append(abc)
    return out


def solve(abc, w, p):
    """Set the wire of c's last term so that the constraint holds in the
    field, when its coefficient is invertible."""
    a, b, c = abc
    if not c or c[-1][1] % p == 0:
        return
    z, cz = c[-1]
    av = sum(k * w[j] for j, k in a)
    bv = sum(k * w[j] for j, k in b)
    rest = sum(k * w[j] for j, k in c[:-1])
    w[z] = (av * bv - rest) * pow(cz, -1, p) % p


@st.composite
def systems_and_witnesses(draw):
    field = draw(st.sampled_from([T64, BN254]))
    p = field.p
    n_vars = draw(st.integers(1, 12))
    cons = draw(constraints(field, n_vars))
    value = st.one_of(st.sampled_from([0, 1]), st.sampled_from([2, 3, p - 1]),
                      st.integers(-2 * p, 3 * p))
    w = [draw(value) for _ in range(n_vars)]
    # walk the constraints in order and, per gate-shaped one, often make it
    # hold -- in the field or as a bitwise operation of its inputs' values,
    # which agree only when those values are bits; an honest witness makes
    # each constraint hold by its own shape, but for a gate now and then
    # sets the output to another bitwise operation of the inputs
    honest = draw(st.booleans())
    for a, b, c in cons:
        if not honest:
            fix = draw(st.sampled_from(["keep", "field", "and", "xor", "or", "bit"]))
        elif len(c) == 1 and a == b == c:
            fix = "bit" if w[c[0][0]] % p > 1 else "keep"
        else:
            fix = next((k for k in ("and", "xor", "or") if len(a) == 1 == len(b)
                        and c and (a, b, c) == gate(k, a[0][0], b[0][0],
                                                    c[-1][0], p)), "field")
            if fix != "field" and draw(st.integers(0, 3)) == 0:
                fix = draw(st.sampled_from(["and", "xor", "or"]))  # a lie
        if fix == "field":
            solve((a, b, c), w, p)
        elif fix == "bit" and len(a) == 1:
            w[a[0][0]] = draw(st.sampled_from([0, 1]))
        elif fix != "keep" and len(a) == 1 == len(b) and c:
            op = {"and": and_, "xor": xor, "or": or_}[fix]
            w[c[-1][0]] = op(w[a[0][0]], w[b[0][0]])
    # unreduced and negative representatives of the same values
    if draw(st.integers(0, 2)) == 0:
        for i in range(n_vars):
            w[i] += p * draw(st.sampled_from([0, 1, -1, 2]))
    return system(field, n_vars, cons), w


def _bits_then_gates(p):
    """Two booleanity wires, then one gate of each kind: each class has
    exactly one member."""
    cs = system(T64, 6, [bit(1), bit(2), gate("and", 1, 2, 3, p),
                         gate("xor", 1, 3, 4, p), gate("or", 2, 4, 5, p)])
    return cs, [1, 1, 0, 0, 1, 1]


@settings(max_examples=600, deadline=None)
@given(systems_and_witnesses())
@example(_bits_then_gates(T64.p))
@example((system(T64, 4, [gate("xor", 1, 2, 3, T64.p), bit(1), bit(2)]),
          [1, 2, 1, 3]))  # a gate before its booleanity constraints
@example((system(T64, 3, [bit(0), bit(1), gate("xor", 0, 1, 2, T64.p)]),
          [1, 1, 0]))  # wire 0 as an input
@example((system(T64, 3, [bit(1), gate("and", 1, 2, 0, T64.p)]),
          [1, 1, 1]))  # wire 0 as an output, of an unknown input
@example((system(T64, 3, [bit(1), gate("or", 1, 1, 2, T64.p)]),
          [1, 1, 1]))  # the same wire twice
@example((system(T64, 4, [bit(1), bit(2), gate("or", 1, 2, 3, T64.p)]),
          [1, 1, 1, 0]))  # 1 ^ 1 at an or gate (coefficient 1)
@example((system(BN254, 3, [bit(1), bit(2), gate("and", 1, 2, 0, BN254.p)]),
          [1 + BN254.p, 1, -BN254.p + 1]))  # unreduced, negative
def test_shape_aware_check_matches_plain_loop(case):
    cs, w = case
    expected = plain_check(cs, w)
    assert cs.check(w) == expected  # no plan: the loop
    cs.plan_check()
    assert cs.plan is not None
    assert cs.check(w) == expected
    # the bulk tests accept every satisfying witness, reduced or not, so
    # `check` runs the plain loop over all constraints only on a failure
    assert cs.plan.holds(w) == (expected is None)
    assert_classified(cs.constraints, cs.field.p)


def test_classify_sorts_shapes():
    p = T64.p
    bits, gates, other = classify(_bits_then_gates(p)[0].constraints, p)
    assert bits == [1, 2]
    assert gates == {"and": ([1], [2], [3]), "xor": ([1], [3], [4]),
                     "or": ([2], [4], [5])}
    assert other == []


def _other(constraints, p=T64.p):
    return classify(constraints, p)[2]


def test_classify_needs_known_distinct_inputs():
    p = T64.p
    # a gate before the booleanity constraints of its inputs
    assert _other([gate("and", 1, 2, 3, p), bit(1), bit(2)]) == [0]
    assert _other([bit(1), gate("xor", 1, 2, 3, p), bit(2)]) == [1]
    # an output of a later gate is not yet a bit
    assert _other([bit(1), bit(2), gate("and", 1, 4, 5, p),
                   gate("and", 1, 2, 4, p)]) == [2]
    # the same wire twice
    assert _other([bit(1)] + [gate(k, 1, 1, 2, p)
                              for k in ("and", "xor", "or")]) == [1, 2, 3]
    # an output equal to an input
    assert _other([bit(1), bit(2), gate("xor", 1, 2, 2, p),
                   gate("or", 1, 2, 1, p)]) == [2, 3]


def test_classify_exact_coefficients():
    p = T64.p
    known = [bit(1), bit(2)]
    cases = [
        (((1, 1),), ((2, 2),), ((3, 1),)),  # 2 on the second input
        (((1, 2),), ((2, 1),), ((3, 1),)),  # 2 on an and
        (((1, 1),), ((2, 1),), ((3, p - 1),)),  # p - 1 on an and output
        (((1, 3),), ((2, 1),), ((1, 1), (2, 1), (3, p - 1))),
        (((1, 2),), ((2, 1),), ((1, 1), (2, 1), (3, 1))),
        (((1, 2),), ((2, 1),), ((1, 1), (2, 2), (3, p - 1))),
        (((1, 2),), ((2, 1),), ((1, 1), (3, p - 1), (2, 1))),  # unsorted
        (((1, 2),), ((2, 1),), ((1, 1), (2, 1))),
        (((1, 1),), ((1, 1),), ((1, p - 1),)),  # booleanity shapes
        (((1, 2),), ((1, 2),), ((1, 2),)),
        (((1, 1),), ((1, 1),), ((1, 1), (0, 0))),
    ]
    for abc in cases:
        assert _other(known + [abc]) == [2], abc
    bits, gates, _ = classify(known + [gate("or", 1, 2, 3, p)], p)
    assert gates["or"] == ([1], [2], [3]) and gates["xor"] == ([], [], [])


def test_wires_outside_the_witness_or_the_table():
    p = T64.p
    # wires 5 and 6 lie past the end of the witness: the plain loop raises,
    # and the bulk tests must not skip them
    cs = system(T64, 7, [bit(1), bit(5), gate("and", 1, 5, 6, p)])
    cs.plan_check()
    with pytest.raises(IndexError):
        cs.check([1, 1, 0])
    # negative wires, and wires past twice the number of constraints (plus a
    # margin), are left to the loop
    assert _other([bit(-1), bit(1), bit(2), gate("xor", 1, 2, -2, p)]) == [0, 3]
    assert _other([bit(1), bit(2), bit(72), gate("and", 1, 2, 72, p)]) == [2, 3]


def test_plan_follows_constraint_changes():
    """A kept plan is dropped once the constraints differ from the ones it
    was made from: a replaced constraint, an appended one, or a copy."""
    import copy
    p = T64.p
    cs, w = _bits_then_gates(p)
    cs.plan_check()
    plan = cs.plan
    cs.plan_check()
    assert cs.plan is plan and cs.check(w) is None
    copied = copy.deepcopy(cs)  # the plan is copied with it
    cs.constraints[3] = gate("and", 1, 3, 4, p)  # 1 & 0 = 0, but w[4] = 1
    assert cs.check(w) == (3, "c3")
    copied.constraints.append((((0, 1),), ((0, 1),), ((0, 2),)))  # 1 = 2
    copied.tags.append("c5")
    assert copied.check(w) == (5, "c5")
    cs.plan_check()
    assert cs.plan is not plan and cs.check(w) == (3, "c3")

"""Rank-1 constraint systems over a prime field.

A system holds sparse constraints A·w x B·w = C·w over a witness vector w
with w[0] = 1 and a public-input prefix.  Witness generation is driven by
hints: each allocated non-input variable is computed by a hint function from
earlier wire values, so an assignment is produced in one pass and either
satisfies every constraint or names the first one that fails.

Linear combinations are tuples of (variable index, coefficient) pairs;
coefficients are canonical field elements.

`check` tests bit relations in bulk.  `classify`, a function of the
constraints alone, walks them in order and picks out booleanity constraints
b·b = b and AND, XOR and OR gates over two distinct wires already known to
be bits (booleanity wires or outputs of earlier gates), whose outputs become
known bits.  If every booleanity wire holds exactly 0 or 1 and every gate
output equals the bitwise operation of its inputs, then, by induction in
constraint order, every gate input is a bit and each of these constraints
holds in the field.  So an integer witness that passes these bulk tests (one
set-membership test, one `map` of `and_`, `xor` or `or_` per gate class) and
the plain loop over the other constraints satisfies the system.  The tests
run on the witness as given and, if they fail, on its residues mod p, so
every satisfying witness passes them, unreduced or not.  A witness that
fails them goes through the plain loop over all constraints, so `check`
names the same first failing constraint and tag as that loop.
"""
from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field as dc_field
from itertools import chain
from operator import and_, eq, or_, xor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .field import Field, field_by_name

LC = Tuple[Tuple[int, int], ...]

MAGIC_R1CS = b"VR1CS\x01"


@dataclass
class Hint:
    outs: Tuple[int, ...]
    ins: Tuple[LC, ...]
    fn: Callable[[Sequence[int]], Sequence[int]]


@dataclass
class ConstraintSystem:
    field: Field
    n_vars: int = 1  # wire 0 is the constant 1
    n_public: int = 1  # prefix length including wire 0
    constraints: List[Tuple[LC, LC, LC]] = dc_field(default_factory=list)
    tags: List[str] = dc_field(default_factory=list)
    hints: List[Hint] = dc_field(default_factory=list)
    # made by `plan_check`; `dataclasses.replace` does not carry it over
    plan: Optional["CheckPlan"] = dc_field(default=None, init=False,
                                           repr=False, compare=False)

    def eval_lc(self, lc: LC, w: List[int]) -> int:
        acc = 0
        for idx, coeff in lc:
            acc += coeff * w[idx]
        return acc % self.field.p

    def generate_witness(self, inputs: Dict[int, int]) -> List[int]:
        """Produce a full assignment from input wire values via the hints."""
        w: List[Optional[int]] = [0] * self.n_vars
        w[0] = 1
        for idx, value in inputs.items():
            w[idx] = value % self.field.p
        for hint in self.hints:
            args = [self.eval_lc(lc, w) for lc in hint.ins]
            outs = hint.fn(args)
            for idx, value in zip(hint.outs, outs):
                w[idx] = value % self.field.p
        return w

    def check(self, w: List[int]) -> Optional[Tuple[int, str]]:
        """Index and tag of the first failing constraint, or None.  With a
        plan that covers the current constraints (`plan_check`), a witness
        that passes its bulk tests is accepted at once; every other witness
        is decided by the plain loop."""
        plan = self.plan
        p = self.field.p
        if (plan is not None and plan.covers(self.constraints, p)
                and plan.holds(w)):
            return None
        i = _first_failing(self.constraints, w, p)
        return None if i is None else (i, self.tags[i])

    def plan_check(self):
        """Classify the constraints for `check`, unless the kept plan was
        made from constraints equal to the current ones.  A plan notices a
        constraint replaced, added or removed, not one changed in place: the
        linear combinations are tuples, as this package builds them."""
        if self.plan is None or not self.plan.covers(self.constraints,
                                                     self.field.p):
            self.plan = CheckPlan(self.constraints, self.field.p)

    # --- canonical serialization -------------------------------------------

    def serialize(self) -> bytes:
        """Canonical bytes: variables and constraints in creation order,
        every integer as a length byte and minimal big-endian; stable across
        runs.  Each wire index is encoded once up front (its encoding also
        serves combination lengths below `n_vars`) and each distinct
        coefficient once, on first use."""
        out = io.BytesIO()
        write = out.write
        name = self.field.name.encode()
        write(MAGIC_R1CS + bytes((len(name),)) + name)
        write(_uint(self.n_vars) + _uint(self.n_public) +
              _uint(len(self.constraints)))
        n_vars = self.n_vars
        wires = [_uint(i) for i in range(n_vars)]
        coeffs: Dict[int, bytes] = {}
        for a, b, c in self.constraints:
            for lc in (a, b, c):
                n = len(lc)
                write(wires[n] if n < n_vars else _uint(n))
                for idx, coeff in lc:
                    write(wires[idx])
                    try:
                        write(coeffs[coeff])
                    except KeyError:
                        coeffs[coeff] = raw = _uint(coeff)
                        write(raw)
        return out.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "ConstraintSystem":
        if not data.startswith(MAGIC_R1CS):
            raise ValueError("not a constraint system file (bad magic)")
        pos = [len(MAGIC_R1CS)]
        name = _get_bytes(data, pos).decode()
        cs = cls(field_by_name(name))
        cs.n_vars = _get_uint(data, pos)
        cs.n_public = _get_uint(data, pos)
        n = _get_uint(data, pos)
        for _ in range(n):
            lcs = []
            for _ in range(3):
                terms = _get_uint(data, pos)
                lcs.append(tuple((_get_uint(data, pos), _get_uint(data, pos))
                                 for _ in range(terms)))
            cs.constraints.append(tuple(lcs))
            cs.tags.append("")
        return cs


def _first_failing(constraints: Sequence[Tuple[LC, LC, LC]], w: List[int],
                   p: int) -> Optional[int]:
    """Index of the first constraint that `w` does not satisfy, or None."""
    for i, (a, b, c) in enumerate(constraints):
        av = 0
        for idx, coeff in a:
            av += coeff * w[idx]
        bv = 0
        for idx, coeff in b:
            bv += coeff * w[idx]
        cv = 0
        for idx, coeff in c:
            cv += coeff * w[idx]
        if (av * bv - cv) % p != 0:
            return i
    return None


GATE_OPS = {"and": and_, "xor": xor, "or": or_}


def classify(constraints: Sequence[Tuple[LC, LC, LC]], p: int):
    """Sort constraints, in order, into booleanity checks and bit gates.

    Returns `(bits, gates, other)`: the wire of each booleanity constraint
    `((b, 1),)·((b, 1),) = ((b, 1),)`; for each name in `GATE_OPS`, the
    lists of x, y and z wires of its gates; and the indices of all other
    constraints.  A gate has two distinct inputs x and y that are known bits
    when it is reached -- booleanity wires or outputs of earlier gates -- and
    its output z becomes a known bit:
      and      ((x, 1),)·((y, 1),) = ((z, 1),)
      xor, or  ((x, 2 or 1),)·((y, 1),) = ((lo, 1), (hi, 1), (z, p - 1)),
               lo < hi the inputs, z neither of them.
    Only wires from 0 to below 2m + 64, for m constraints, are classified
    (builder-made systems have about one wire per constraint), so the table
    of known bits stays small whatever the indices.  Reads nothing but the
    constraints and p."""
    bits: List[int] = []
    gates = {name: ([], [], []) for name in GATE_OPS}
    other: List[int] = []
    known = bytearray(2 * len(constraints) + 64)
    limit = len(known)
    minus_one = p - 1
    for i, (a, b, c) in enumerate(constraints):
        if len(a) == 1 == len(b):
            (x, ca), = a
            (y, cb), = b
            if cb == 1 and 0 <= x < limit and 0 <= y < limit:
                if x == y:
                    if ca == 1 and c == a:
                        bits.append(x)
                        known[x] = 1
                        continue
                elif known[x] and known[y]:
                    name = None
                    if len(c) == 1:
                        (z, cz), = c
                        if ca == 1 and cz == 1:
                            name = "and"
                    elif len(c) == 3 and (ca == 2 or ca == 1):
                        (lo, cl), (hi, ch), (z, cz) = c
                        if (cl == 1 == ch and cz == minus_one and z != x
                                and z != y and (lo, hi) == ((x, y) if x < y
                                                            else (y, x))):
                            name = "xor" if ca == 2 else "or"
                    if name is not None and 0 <= z < limit:
                        xs, ys, zs = gates[name]
                        xs.append(x)
                        ys.append(y)
                        zs.append(z)
                        known[z] = 1
                        continue
        other.append(i)
    return bits, gates, other


class CheckPlan:
    """The tests `ConstraintSystem.check` runs for one sequence of
    constraints: the classes `classify` found, in bulk, and the other
    constraints one by one.  Each class keeps its wires as the starts and
    stops of their runs of consecutive indices, a few bytes per run, and
    reads the witness by slicing it."""

    def __init__(self, constraints: Sequence[Tuple[LC, LC, LC]], p: int):
        # a list is copied, a tuple is its own slice; comparing two lists of
        # the same tuples is then one pass over pointers
        self.source = constraints[:]
        self.p = p
        bits, gates, other = classify(self.source, p)
        self.bits = _runs(bits)
        self.gates = [(GATE_OPS[name], _runs(xs), _runs(ys), _runs(zs))
                      for name, (xs, ys, zs) in gates.items() if xs]
        self.other = tuple(map(self.source.__getitem__, other))
        runs = [self.bits] + [r for _, *xyz in self.gates for r in xyz]
        # a witness shorter than this would cut slices short
        self.n_wires = max(max(stops, default=0) for _, stops in runs)

    def covers(self, constraints: Sequence[Tuple[LC, LC, LC]], p: int) -> bool:
        """True iff the plan was made from `constraints`, or equal ones,
        over the same prime."""
        return p == self.p and (constraints is self.source or
                                constraints == self.source)

    def holds(self, w: List[int]) -> bool:
        """True only if `w` satisfies every constraint.  The bulk tests run
        on `w` as given and, if they fail, once more on its canonical
        representatives (`% p`), so unreduced and negative values pass as
        their residues do.  False is no verdict: a witness too short for a
        classified wire, say, fails whether or not the constraints hold."""
        return self._bulk(w) or self._bulk([v % self.p for v in w])

    def _bulk(self, w: List[int]) -> bool:
        if len(w) < self.n_wires:
            return False
        try:
            if not set(_values(w, self.bits)) <= {0, 1}:
                return False
            for op, xs, ys, zs in self.gates:
                if not all(map(eq, map(op, _values(w, xs), _values(w, ys)),
                               _values(w, zs))):
                    return False
            return _first_failing(self.other, w, self.p) is None
        except (IndexError, TypeError):
            return False


def _runs(indices: List[int]) -> Tuple[array, array]:
    """The starts and stops of the runs of consecutive values in
    `indices`, in order."""
    if not indices:
        return array("q"), array("q")
    breaks = [k for k, (u, v) in enumerate(zip(indices, indices[1:]), 1)
              if v != u + 1]
    return (array("q", [indices[k] for k in [0, *breaks]]),
            array("q", [indices[k - 1] + 1 for k in [*breaks, len(indices)]]))


def _values(w: List[int], runs: Tuple[array, array]):
    """The values of `w` at the wires of `runs`, in order."""
    return chain.from_iterable(map(w.__getitem__, map(slice, *runs)))


def _uint(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
    assert len(raw) < 256
    return bytes((len(raw),)) + raw


def _get_uint(data: bytes, pos: List[int]) -> int:
    n = data[pos[0]]
    start = pos[0] + 1
    pos[0] = start + n
    return int.from_bytes(data[start:start + n], "big")


def _get_bytes(data: bytes, pos: List[int]) -> bytes:
    n = data[pos[0]]
    start = pos[0] + 1
    pos[0] = start + n
    return data[start:start + n]

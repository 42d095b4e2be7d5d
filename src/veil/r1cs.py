"""Rank-1 constraint systems over a prime field.

A system holds sparse constraints A·w x B·w = C·w over a witness vector w
with w[0] = 1 and a public-input prefix.  Witness generation is driven by
hints: each allocated non-input variable is computed by a hint function from
earlier wire values, so an assignment is produced in one pass and either
satisfies every constraint or names the first one that fails.

Linear combinations are tuples of (variable index, coefficient) pairs;
coefficients are canonical field elements.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field
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
        """Index and tag of the first failing constraint, or None."""
        p = self.field.p
        for i, (a, b, c) in enumerate(self.constraints):
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
                return i, self.tags[i]
        return None

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

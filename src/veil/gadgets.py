"""Circuit builder with width- and sign-correct typed wires.

Values travel as linear combinations so that additions stay free until a
truncation pins them back into their declared width via bit decomposition.
Signed values use two's complement inside the same unsigned bit pattern;
only comparisons, arithmetic right shifts and sign extension look at the
sign bit.

Width 256 is special: such values occupy one field element, arithmetic
overflows at the field prime and comparisons require both operands below
2^252 (enforced by decomposition).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .field import Field
from .r1cs import ConstraintSystem, Hint, LC

FIELD_WIDTH = 256  # marker width for native field semantics
CMP_BITS_256 = 252


def lc_of(var: int) -> Dict[int, int]:
    return {var: 1}


def lc_const(c: int) -> Dict[int, int]:
    return {0: c} if c else {}


def lc_add(*lcs: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for lc in lcs:
        for k, v in lc.items():
            out[k] = out.get(k, 0) + v
    return out


def lc_scale(lc: Dict[int, int], s: int) -> Dict[int, int]:
    return {k: v * s for k, v in lc.items()} if s != 1 else dict(lc)


def lc_sub(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    return lc_add(a, lc_scale(b, -1))


@dataclass
class TypedWire:
    """A value of a fixed emulated width.  `bits` caches the decomposition
    (LSB first, each entry itself a linear combination) and doubles as the
    range proof."""

    lc: Dict[int, int]
    width: int
    signed: bool = False
    bits: Optional[List[Dict[int, int]]] = None


_BIT_GATES = {"&": operator.and_, "|": operator.or_, "^": operator.xor}
_BIT_GATE_TAGS = {"&": "and", "|": "or", "^": "xor"}


class Builder:
    def __init__(self, f: Field):
        self.f = f
        self.p = f.p
        self.cs = ConstraintSystem(f)
        self._publics_closed = False

    # --- allocation ---------------------------------------------------------

    def alloc(self, n: int = 1) -> int:
        """Allocate n fresh private wires, returning the first index."""
        self._publics_closed = True
        first = self.cs.n_vars
        self.cs.n_vars += n
        return first

    def alloc_public(self, n: int = 1) -> int:
        assert not self._publics_closed, "public wires must be allocated first"
        first = self.cs.n_vars
        self.cs.n_vars += n
        self.cs.n_public += n
        return first

    # --- raw constraints ------------------------------------------------------

    def _freeze(self, lc: Dict[int, int]) -> LC:
        """The canonical sorted form; coefficients are reduced only when one
        lies outside (0, p)."""
        p = self.p
        for v in lc.values():
            if not 0 < v < p:
                return tuple(sorted((k, v % p) for k, v in lc.items() if v % p))
        return tuple(sorted(lc.items()))

    def enforce(self, a: Dict[int, int], b: Dict[int, int], c: Dict[int, int],
                tag: str = ""):
        self.cs.constraints.append((self._freeze(a), self._freeze(b), self._freeze(c)))
        self.cs.tags.append(tag)

    def hint(self, outs: Sequence[int], ins: Sequence[Dict[int, int]],
             fn: Callable[[Sequence[int]], Sequence[int]]):
        self.cs.hints.append(Hint(tuple(outs), tuple(self._freeze(i) for i in ins), fn))

    def mul_var(self, a: Dict[int, int], b: Dict[int, int], tag: str = "") -> Dict[int, int]:
        """Allocate a wire constrained to the product of two combinations."""
        out = self.alloc()
        self.enforce(a, b, lc_of(out), tag or "product")
        p = self.p
        self.hint([out], [a, b], lambda v: [(v[0] * v[1]) % p])
        return lc_of(out)

    def finish(self) -> ConstraintSystem:
        return self.cs

    # --- bit plumbing -----------------------------------------------------------

    def decompose(self, lc: Dict[int, int], nbits: int, tag: str = "") -> List[Dict[int, int]]:
        """Prove 0 <= value < 2^nbits and return its bits, LSB first."""
        first = self.alloc(nbits)
        bit_vars = list(range(first, first + nbits))
        constraints, tags, bit_tag = self.cs.constraints, self.cs.tags, tag or "bit"
        for b in bit_vars:  # booleanity: b * b = b
            t = ((b, 1),)
            constraints.append((t, t, t))
            tags.append(bit_tag)
        total = {b: 1 << i for i, b in enumerate(bit_vars)}
        self.enforce(total, lc_const(1), lc, tag or "recompose")

        def fn(v, n=nbits):
            x = v[0]
            return [(x >> i) & 1 for i in range(n)]

        self.hint(bit_vars, [lc], fn)
        return [lc_of(b) for b in bit_vars]

    def ensure_bits(self, tw: TypedWire) -> List[Dict[int, int]]:
        if tw.bits is None:
            n = CMP_BITS_256 if tw.width == FIELD_WIDTH else tw.width
            tw.bits = self.decompose(tw.lc, n, f"range<{tw.width}>")
        return tw.bits

    @staticmethod
    def recompose(bits: List[Dict[int, int]]) -> Dict[int, int]:
        """The sum of bits[i] * 2^i."""
        out: Dict[int, int] = {}
        for i, b in enumerate(bits):
            for k, v in b.items():
                out[k] = out.get(k, 0) + (v << i)
        return out

    def bit_gate(self, op: str, xbits: List[Dict[int, int]], ybits: List[Dict[int, int]],
                 x: Dict[int, int], y: Dict[int, int], tag: str) -> List[Dict[int, int]]:
        """Bitwise and/or/xor ("&", "|", "^") of two equal-length bit lists,
        one constraint per bit; x and y recompose xbits and ybits and feed
        the one witness hint."""
        n = len(xbits)
        first = self.alloc(n)
        out = [{first + i: 1} for i in range(n)]
        constraints, tags, minus_one = self.cs.constraints, self.cs.tags, self.p - 1
        for xb, yb, zw in zip(xbits, ybits, range(first, first + n)):
            if len(xb) == 1 == len(yb):
                (xw, xc), = xb.items()
                (yw, yc), = yb.items()
                if xc == 1 == yc and xw != yw:
                    # two distinct wires: the frozen forms of the formulas
                    # below, with the fresh output wire sorting last
                    if op == "&":
                        constraints.append((((xw, 1),), ((yw, 1),), ((zw, 1),)))
                    else:
                        lo, hi = (xw, yw) if xw < yw else (yw, xw)
                        a = ((xw, 2),) if op == "^" else ((xw, 1),)
                        constraints.append(
                            (a, ((yw, 1),), ((lo, 1), (hi, 1), (zw, minus_one))))
                    tags.append(tag)
                    continue
            z = lc_of(zw)
            if op == "^":  # 2x * y = x + y - z
                self.enforce(lc_scale(xb, 2), yb, lc_sub(lc_add(xb, yb), z), tag)
            elif op == "&":
                self.enforce(xb, yb, z, tag)
            else:  # or: x * y = x + y - z
                self.enforce(xb, yb, lc_sub(lc_add(xb, yb), z), tag)

        def fn(v, n=n, gate=_BIT_GATES[op]):
            r = gate(v[0], v[1])
            return [(r >> i) & 1 for i in range(n)]

        self.hint(range(first, first + n), [x, y], fn)
        return out

    def truncate(self, lc: Dict[int, int], width: int, maxbits: int,
                 tag: str = "") -> TypedWire:
        """Reduce a value known to fit maxbits into its low `width` bits."""
        bits = self.decompose(lc, maxbits, tag or f"trunc{maxbits}->{width}")
        low = bits[:width]
        return TypedWire(self.recompose(low), width, False, low)

    # --- typed arithmetic ----------------------------------------------------------

    def const_wire(self, value: int, width: int, signed: bool = False) -> TypedWire:
        value &= (1 << width) - 1 if width != FIELD_WIDTH else value
        if width == FIELD_WIDTH:
            value %= self.p
            return TypedWire(lc_const(value), FIELD_WIDTH, False, None)
        bits = [lc_const((value >> i) & 1) for i in range(width)]
        return TypedWire(lc_const(value), width, signed, bits)

    def input_wire(self, var: int, width: int, signed: bool = False,
                   range_check: bool = True) -> TypedWire:
        tw = TypedWire(lc_of(var), width, signed)
        if range_check and width != FIELD_WIDTH:
            self.ensure_bits(tw)
        return tw

    def binop(self, op: str, a: TypedWire, b: Optional[TypedWire],
              const_shift: Optional[int] = None) -> TypedWire:
        if op == "+":
            return self.add(a, b)
        if op == "-":
            return self.sub(a, b)
        if op == "*":
            return self.mul(a, b)
        if op in ("&", "|", "^"):
            return self.bitwise(op, a, b)
        if op in ("<<", ">>"):
            return self.shift(op, a, const_shift)
        if op in ("<", "<=", ">", ">="):
            return self.compare(op, a, b)
        if op == "==":
            return self.eq(a, b)
        if op == "!=":
            return self.bool_not(self.eq(a, b))
        if op == "&&":
            return self.bool_and(a, b)
        if op == "||":
            return self.bool_or(a, b)
        raise ValueError(f"unsupported circuit operator {op!r}")

    def unop(self, op: str, a: TypedWire) -> TypedWire:
        if op == "-":
            return self.neg(a)
        if op == "~":
            return self.bit_not(a)
        if op == "!":
            return self.bool_not(a)
        raise ValueError(f"unsupported circuit operator {op!r}")

    def add(self, a: TypedWire, b: TypedWire) -> TypedWire:
        w = a.width
        if w == FIELD_WIDTH:
            return TypedWire(lc_add(a.lc, b.lc), FIELD_WIDTH)
        out = self.truncate(lc_add(a.lc, b.lc), w, w + 1, f"add{w}")
        out.signed = a.signed
        return out

    def neg(self, a: TypedWire) -> TypedWire:
        w = a.width
        if w == FIELD_WIDTH:
            return TypedWire(lc_scale(a.lc, -1), FIELD_WIDTH)
        # two's complement: 2^w - a, then drop the carry bit
        out = self.truncate(lc_sub(lc_const(1 << w), a.lc), w, w + 1, f"neg{w}")
        out.signed = a.signed
        return out

    def sub(self, a: TypedWire, b: TypedWire) -> TypedWire:
        w = a.width
        if w == FIELD_WIDTH:
            return TypedWire(lc_sub(a.lc, b.lc), FIELD_WIDTH)
        out = self.truncate(lc_add(a.lc, lc_sub(lc_const(1 << w), b.lc)), w, w + 1,
                            f"sub{w}")
        out.signed = a.signed
        return out

    def mul(self, a: TypedWire, b: TypedWire) -> TypedWire:
        w = a.width
        if w == FIELD_WIDTH:
            return TypedWire(self.mul_var(a.lc, b.lc, "mul256"), FIELD_WIDTH)
        if 2 * w <= self.f.bits - 2:
            prod = self.mul_var(a.lc, b.lc, f"mul{w}")
            out = self.truncate(prod, w, 2 * w, f"mul{w}")
        else:
            # split into half-width limbs so no partial product overflows
            h = w // 2
            abits = self.ensure_bits(a)
            bbits = self.ensure_bits(b)
            a_lo, a_hi = self.recompose(abits[:h]), self.recompose(abits[h:])
            b_lo, b_hi = self.recompose(bbits[:h]), self.recompose(bbits[h:])
            ll = self.mul_var(a_lo, b_lo, f"mul{w}.ll")
            lh = self.mul_var(a_lo, b_hi, f"mul{w}.lh")
            hl = self.mul_var(a_hi, b_lo, f"mul{w}.hl")
            mid = self.truncate(lc_add(lh, hl), h, w + 1, f"mul{w}.mid")
            out = self.truncate(lc_add(ll, lc_scale(mid.lc, 1 << h)), w, w + 1,
                                f"mul{w}.fold")
        out.signed = a.signed
        return out

    def bitwise(self, op: str, a: TypedWire, b: TypedWire) -> TypedWire:
        assert a.width != FIELD_WIDTH, "bitwise operators unsupported on 256-bit values"
        abits = self.ensure_bits(a)
        bbits = self.ensure_bits(b)
        out_bits = self.bit_gate(op, abits, bbits, self.recompose(abits),
                                 self.recompose(bbits), _BIT_GATE_TAGS[op])
        return TypedWire(self.recompose(out_bits), a.width, a.signed, out_bits)

    def bit_not(self, a: TypedWire) -> TypedWire:
        w = a.width
        assert w != FIELD_WIDTH
        bits = [lc_sub(lc_const(1), b) for b in self.ensure_bits(a)]
        return TypedWire(self.recompose(bits), w, a.signed, bits)

    def shift(self, op: str, a: TypedWire, amount: int) -> TypedWire:
        w = a.width
        assert w != FIELD_WIDTH
        assert amount is not None and amount >= 0, "shift amount must be a public constant"
        bits = self.ensure_bits(a)
        k = min(amount, w)
        zero = lc_const(0)
        if op == "<<":
            out_bits = [zero] * k + bits[: w - k]
        elif a.signed:
            sign = bits[w - 1]
            out_bits = bits[k:] + [sign] * k
        else:
            out_bits = bits[k:] + [zero] * k
        return TypedWire(self.recompose(out_bits), w, a.signed, out_bits)

    def _unsigned_order(self, a: TypedWire, b: TypedWire) -> Tuple[Dict[int, int], Dict[int, int], int]:
        """Return comparison-ready combinations and the working width."""
        if a.width == FIELD_WIDTH:
            # comparisons on field values require both operands < 2^252
            self.ensure_bits(a)
            self.ensure_bits(b)
            return a.lc, b.lc, CMP_BITS_256
        if a.signed:
            sa = self.ensure_bits(a)[a.width - 1]
            sb = self.ensure_bits(b)[b.width - 1]
            half = 1 << (a.width - 1)
            # flipping the sign bit maps two's complement onto unsigned order
            fa = lc_add(a.lc, lc_const(half), lc_scale(sa, -2 * half))
            fb = lc_add(b.lc, lc_const(half), lc_scale(sb, -2 * half))
            return fa, fb, a.width
        self.ensure_bits(a)
        self.ensure_bits(b)
        return a.lc, b.lc, a.width

    def compare(self, op: str, a: TypedWire, b: TypedWire) -> TypedWire:
        if op == ">":
            return self.compare("<", b, a)
        if op == ">=":
            return self.compare("<=", b, a)
        fa, fb, w = self._unsigned_order(a, b)
        if op == "<=":
            fa, fb = fb, fa  # a <= b  <=>  not (b < a)
        # d = fa - fb + 2^w lies in (0, 2^(w+1)); bit w is set iff fa >= fb
        d = lc_add(fa, lc_const(1 << w), lc_scale(fb, -1))
        bits = self.decompose(d, w + 1, f"cmp{w}")
        ge = bits[w]
        result = lc_sub(lc_const(1), ge) if op == "<" else ge
        return TypedWire(result, 1, False, [result])

    def eq(self, a: TypedWire, b: TypedWire) -> TypedWire:
        z = self.is_zero(lc_sub(a.lc, b.lc))
        return TypedWire(z, 1, False, [z])

    def is_zero(self, lc: Dict[int, int], tag: str = "is_zero") -> Dict[int, int]:
        inv = self.alloc()
        z = self.alloc()
        self.enforce(lc, lc_of(inv), lc_sub(lc_const(1), lc_of(z)), tag)
        self.enforce(lc, lc_of(z), lc_const(0), tag)
        p = self.p

        def fn(v):
            d = v[0]
            if d == 0:
                return [0, 1]
            return [pow(d, -1, p), 0]

        self.hint([inv, z], [lc], fn)
        return lc_of(z)

    def bool_and(self, a: TypedWire, b: TypedWire) -> TypedWire:
        out = self.mul_var(a.lc, b.lc, "and")
        return TypedWire(out, 1, False, [out])

    def bool_or(self, a: TypedWire, b: TypedWire) -> TypedWire:
        prod = self.mul_var(a.lc, b.lc, "or")
        out = lc_sub(lc_add(a.lc, b.lc), prod)
        return TypedWire(out, 1, False, [out])

    def bool_not(self, a: TypedWire) -> TypedWire:
        out = lc_sub(lc_const(1), a.lc)
        return TypedWire(out, 1, False, [out])

    def mux(self, cond: Dict[int, int], t: TypedWire, f: TypedWire) -> TypedWire:
        """cond * t + (1 - cond) * f for a boolean cond."""
        out = self.alloc()
        self.enforce(cond, lc_sub(t.lc, f.lc), lc_sub(lc_of(out), f.lc), "mux")
        p = self.p
        self.hint([out], [cond, t.lc, f.lc],
                  lambda v: [(v[1] if v[0] else v[2]) % p])
        width = t.width
        return TypedWire(lc_of(out), width, t.signed)

    def cast(self, a: TypedWire, to_width: int, to_signed: bool) -> TypedWire:
        if a.width == FIELD_WIDTH and to_width == FIELD_WIDTH:
            return TypedWire(a.lc, FIELD_WIDTH, False, a.bits)
        if a.width == FIELD_WIDTH:
            # narrow a field value: keep the low bits of its 253-bit form
            bits = self.decompose(a.lc, self.f.bits, "cast-field")[:to_width]
            return TypedWire(self.recompose(bits), to_width, to_signed, bits)
        if to_width == FIELD_WIDTH:
            if a.signed:
                bits = self.ensure_bits(a)
                sign = bits[a.width - 1]
                # sign-extend into the field: value - 2^w * sign ... mod p
                ext = lc_add(a.lc, lc_scale(sign, self.p - (1 << a.width)))
                return TypedWire(ext, FIELD_WIDTH)
            return TypedWire(a.lc, FIELD_WIDTH)
        if to_width <= a.width:
            bits = self.ensure_bits(a)[:to_width]
            return TypedWire(self.recompose(bits), to_width, to_signed, bits)
        bits = list(self.ensure_bits(a))
        fill = bits[a.width - 1] if a.signed else lc_const(0)
        bits = bits + [fill] * (to_width - a.width)
        return TypedWire(self.recompose(bits), to_width, to_signed, bits)

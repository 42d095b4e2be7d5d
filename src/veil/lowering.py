"""Lowering: inline nested circuit calls into one flat circuit, then compile
it to a rank-1 constraint system with a witness generator.

Public R1CS inputs are the in-array slots followed by the out-array slots in
layout order; when the public-input hashing optimization is active the only
R1CS public input is the SHA-256 digest of those slots, which the circuit
recomputes internally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .circuits import (AbstractCircuit, CBin, CCall, CCast, CCond, CDecl,
                       CEnc, CEq, CExpr, CGuardPop, CGuardPush, CLit, CUn,
                       CVar, CircType, CircuitVar, FIELD_WIDTH, KeyRef,
                       ROLE_KEY, ROLE_PARAM, ROLE_PRIV, ROLE_PUB_IN,
                       ROLE_PUB_OUT, SectionLayout)
from .crypto import CircuitKit, CryptoBackend
from .field import Field
from .gadgets import Builder, TypedWire, lc_const, lc_of, lc_sub
from .r1cs import ConstraintSystem
from .sha256gadget import CONCAT, circuit_hash, concat_compressions, legacy_compressions


class LoweringError(Exception):
    pass


def inline_calls(circuits: Dict[str, AbstractCircuit], root: str,
                 layout: SectionLayout) -> AbstractCircuit:
    """One flat circuit: callee variables renamed with instance-path
    prefixes, slot offsets rebased to absolute array positions, bound
    parameters substituted by caller wires.  Because callee statements are
    emitted inside the caller's active guard region, call-site guards
    compose with the callees' own guards for free."""
    flat = AbstractCircuit(name=root)
    flat.own_in_slots = layout.in_total
    flat.own_out_slots = layout.out_total

    def emit(name: str, path: str, prefix: str, bindings: Dict[str, str]):
        c = circuits[name]
        section = layout.by_path(path)
        if c.needs_sk:
            flat.needs_sk = True
        for label in c.key_labels:
            if label not in flat.key_labels:
                flat.key_labels.append(label)
        rename: Dict[str, str] = {}
        for var in c.vars.values():
            if var.role == ROLE_PARAM:
                rename[var.name] = bindings[var.name]
                continue
            if var.role == ROLE_KEY or var.name == "sk_me":
                rename[var.name] = var.name
                if var.name not in flat.vars:
                    flat.add_var(CircuitVar(var.name, var.role, var.ctype,
                                            var.slots, var.slot_offset,
                                            label=var.label, comment=var.comment))
                continue
            new = CircuitVar(prefix + var.name, var.role, var.ctype, var.slots,
                             var.slot_offset, label=var.label, comment=var.comment)
            if var.role == ROLE_PUB_IN:
                new.slot_offset = section.in_offset + var.slot_offset
            elif var.role == ROLE_PUB_OUT:
                new.slot_offset = section.out_offset + var.slot_offset
            rename[var.name] = new.name
            flat.add_var(new)

        def rn(n: str) -> str:
            return rename.get(n, n)

        def rn_expr(e: CExpr) -> CExpr:
            if isinstance(e, CVar):
                return CVar(rn(e.name), e.ctype)
            if isinstance(e, CLit):
                return e
            if isinstance(e, CBin):
                return CBin(e.op, rn_expr(e.left), rn_expr(e.right), e.ctype, e.op_type)
            if isinstance(e, CUn):
                return CUn(e.op, rn_expr(e.operand), e.ctype)
            if isinstance(e, CCond):
                return CCond(rn_expr(e.cond), rn_expr(e.then_val),
                             rn_expr(e.else_val), e.ctype)
            if isinstance(e, CCast):
                return CCast(rn_expr(e.operand), e.ctype)
            raise LoweringError(f"unknown circuit expression {e!r}")

        for stmt in c.stmts:
            if isinstance(stmt, CCall):
                child_path = f"{path}/{stmt.instance}:{stmt.callee}"
                child_prefix = f"{prefix}{stmt.instance}:{stmt.callee}/"
                child_bindings = {param: rn(src) for param, src in stmt.bindings.items()}
                emit(stmt.callee, child_path, child_prefix, child_bindings)
            elif isinstance(stmt, CDecl):
                flat.stmts.append(CDecl(rn(stmt.var), rn_expr(stmt.expr), stmt.comment))
            elif isinstance(stmt, CGuardPush):
                flat.stmts.append(CGuardPush(rn(stmt.var), stmt.expected))
            elif isinstance(stmt, CGuardPop):
                flat.stmts.append(stmt)
            elif isinstance(stmt, CEnc):
                key = stmt.key if stmt.key.kind == "global" \
                    else KeyRef("slot", rn(stmt.key.name))
                flat.stmts.append(CEnc(rn(stmt.plain), key, rn(stmt.rnd),
                                       rn(stmt.cipher), stmt.mode,
                                       stmt.user_provided, stmt.comment))
            elif isinstance(stmt, CEq):
                flat.stmts.append(CEq(rn(stmt.lhs), rn(stmt.rhs), stmt.comment))
            else:
                raise LoweringError(f"unknown circuit statement {stmt!r}")

    emit(root, root, "", {})
    flat.validate()
    return flat


@dataclass
class LoweredCircuit:
    name: str
    cs: ConstraintSystem
    field: Field
    in_total: int
    out_total: int
    in_wires: List[int]
    out_wires: List[int]
    priv_wires: Dict[str, Tuple[int, int]]  # name -> (first wire, slot count)
    hashing_active: bool = False
    hash_mode: str = CONCAT
    hash_compressions: int = 0
    digest_wire: Optional[int] = None

    def witness_inputs(self, in_values: List[int], out_values: List[int],
                       priv_values: Dict[str, object]) -> Dict[int, int]:
        assert len(in_values) == self.in_total, "in array length mismatch"
        assert len(out_values) == self.out_total, "out array length mismatch"
        inputs: Dict[int, int] = {}
        for wire, value in zip(self.in_wires, in_values):
            inputs[wire] = value
        for wire, value in zip(self.out_wires, out_values):
            inputs[wire] = value
        for name, (first, count) in self.priv_wires.items():
            value = priv_values.get(name, 0)
            if isinstance(value, (tuple, list)):
                assert len(value) == count, f"slot count mismatch for {name}"
                for i, v in enumerate(value):
                    inputs[first + i] = v
            else:
                inputs[first] = value
        return inputs


class _Lowerer:
    def __init__(self, flat: AbstractCircuit, backend: CryptoBackend, field: Field,
                 in_total: int, out_total: int, hash_threshold: int, hash_mode: str):
        self.flat = flat
        self.backend = backend
        self.field = field
        self.in_total = in_total
        self.out_total = out_total
        self.hash_mode = hash_mode
        n_pub = in_total + out_total
        self.hashing_active = n_pub > hash_threshold and n_pub > 0
        self.bld = Builder(field)
        self.wires: Dict[str, TypedWire] = {}
        self.cipher_wires: Dict[str, List[int]] = {}
        self.priv_wires: Dict[str, Tuple[int, int]] = {}
        self.guard_stack: List[Tuple[dict, bool]] = []
        self.active_stack: List[Optional[dict]] = [None]  # None = unguarded

    def run(self) -> LoweredCircuit:
        bld = self.bld
        digest_wire = None
        if self.hashing_active:
            digest_wire = bld.alloc_public(1)
            in_first = bld.alloc(self.in_total) if self.in_total else bld.cs.n_vars
            out_first = bld.alloc(self.out_total) if self.out_total else bld.cs.n_vars
        else:
            in_first = bld.alloc_public(self.in_total) if self.in_total else bld.cs.n_vars
            out_first = bld.alloc_public(self.out_total) if self.out_total else bld.cs.n_vars
        in_wires = list(range(in_first, in_first + self.in_total))
        out_wires = list(range(out_first, out_first + self.out_total))
        self.slot_wires = {"in": in_wires, "out": out_wires}

        # bind circuit variables to wires
        sk_wire = None
        key_lcs: Dict[str, dict] = {}
        for var in self.flat.vars.values():
            if var.role in (ROLE_PUB_IN, ROLE_KEY):
                base = in_wires[var.slot_offset]
                self._bind_slot_var(var, in_wires)
                if var.role == ROLE_KEY:
                    key_lcs[var.label] = lc_of(base)
            elif var.role == ROLE_PUB_OUT:
                self._bind_slot_var(var, out_wires)
            elif var.role == ROLE_PRIV:
                first = bld.alloc(var.slots)
                self.priv_wires[var.name] = (first, var.slots)
                if var.name == "sk_me":
                    sk_wire = first
                elif var.ctype is not None:
                    # secret inputs carry their declared width as a range proof
                    self.wires[var.name] = bld.input_wire(
                        first, var.ctype.width, var.ctype.signed,
                        range_check=var.ctype.width != FIELD_WIDTH)
                else:
                    self.cipher_wires[var.name] = list(range(first, first + var.slots))

        my_pk = key_lcs.get("me")
        self.kit = CircuitKit(bld, self.field, sk_wire=sk_wire, my_pk_lc=my_pk)
        self.key_lcs = key_lcs

        for stmt in self.flat.stmts:
            self.lower_stmt(stmt)
        assert not self.guard_stack, "unbalanced guards"

        compressions = 0
        if self.hashing_active:
            slot_bits = []
            for w in in_wires + out_wires:
                slot_bits.append(bld.decompose(lc_of(w), 256, "pub.slot"))
            digest_lc = circuit_hash(bld, slot_bits, self.field, self.hash_mode)
            bld.enforce(lc_sub(digest_lc, lc_of(digest_wire)), lc_const(1),
                        lc_const(0), "pub.digest")
            n = self.in_total + self.out_total
            compressions = concat_compressions(n) if self.hash_mode == CONCAT \
                else legacy_compressions(n)

        cs = bld.finish()
        return LoweredCircuit(
            name=self.flat.name, cs=cs, field=self.field,
            in_total=self.in_total, out_total=self.out_total,
            in_wires=in_wires, out_wires=out_wires, priv_wires=self.priv_wires,
            hashing_active=self.hashing_active, hash_mode=self.hash_mode,
            hash_compressions=compressions, digest_wire=digest_wire)

    def _bind_slot_var(self, var: CircuitVar, wires: List[int]):
        base = var.slot_offset
        if var.is_cipher:
            self.cipher_wires[var.name] = wires[base: base + var.slots]
        else:
            self.wires[var.name] = self.bld.input_wire(
                wires[base], var.ctype.width, var.ctype.signed, range_check=False)

    # -- guards --

    def active_lc(self) -> Optional[dict]:
        return self.active_stack[-1]

    def push_guard(self, var: str, expected: bool):
        g = self.wires[var]
        term = g.lc if expected else lc_sub(lc_const(1), g.lc)
        prev = self.active_lc()
        if prev is None:
            new = term
        else:
            new = self.bld.mul_var(prev, term, "guard")
        self.guard_stack.append((term, expected))
        self.active_stack.append(new)

    def pop_guard(self):
        self.guard_stack.pop()
        self.active_stack.pop()

    # -- statements --

    def lower_stmt(self, stmt):
        if isinstance(stmt, CDecl):
            self.wires[stmt.var] = self.eval_expr(stmt.expr)
        elif isinstance(stmt, CGuardPush):
            self.push_guard(stmt.var, stmt.expected)
        elif isinstance(stmt, CGuardPop):
            self.pop_guard()
        elif isinstance(stmt, CEq):
            lhs = self.wires[stmt.lhs]
            rhs = self.wires[stmt.rhs]
            active = self.active_lc()
            diff = lc_sub(lhs.lc, rhs.lc)
            if active is None:
                self.bld.enforce(diff, lc_const(1), lc_const(0),
                                 f"eq: {stmt.comment}")
            else:
                self.bld.enforce(active, diff, lc_const(0), f"eq: {stmt.comment}")
        elif isinstance(stmt, CEnc):
            self.lower_enc(stmt)
        else:
            raise LoweringError(f"cannot lower {stmt!r} (circuit not flat?)")

    def lower_enc(self, stmt: CEnc):
        bld = self.bld
        plain = self.wires[stmt.plain]
        cipher = self.cipher_wires[stmt.cipher]
        cipher_lcs = [lc_of(w) for w in cipher]
        rnd_first, rnd_count = self.priv_wires[stmt.rnd]
        rnd_lcs = [lc_of(rnd_first + i) for i in range(rnd_count)]
        if stmt.key.kind == "global":
            key_lc = self.key_lcs[stmt.key.name]
        else:
            key_lc = self.wires[stmt.key.name].lc
        expected = self.backend.expected_slots(
            self.kit, plain.lc, key_lc, rnd_lcs, cipher_lcs, stmt.mode)
        # zero-ciphertext rule: (c = 0 => plain = 0) and (c != 0 => c = Enc(..))
        z = self.is_all_zero(cipher_lcs, stmt.comment)
        active = self.active_lc()
        one_minus_z = lc_sub(lc_const(1), z)
        nz_active = one_minus_z if active is None else \
            bld.mul_var(active, one_minus_z, "enc.active")
        for idx, e_lc in expected:
            bld.enforce(nz_active, lc_sub(cipher_lcs[idx], e_lc), lc_const(0),
                        f"enc[{idx}]: {stmt.comment}")
        z_active = z if active is None else bld.mul_var(active, z, "enc.zactive")
        bld.enforce(z_active, plain.lc, lc_const(0), f"enc.zero: {stmt.comment}")
        if stmt.user_provided:
            # user-supplied ciphertexts are never the reserved zero value
            if active is None:
                bld.enforce(z, lc_const(1), lc_const(0), f"enc.nonzero: {stmt.comment}")
            else:
                bld.enforce(active, z, lc_const(0), f"enc.nonzero: {stmt.comment}")

    def is_all_zero(self, lcs: List[dict], tag: str) -> dict:
        acc = None
        for lc in lcs:
            z = self.bld.is_zero(lc, f"zero: {tag}")
            acc = z if acc is None else self.bld.mul_var(acc, z, f"zero: {tag}")
        return acc if acc is not None else lc_const(1)

    # -- expressions --

    def eval_expr(self, e: CExpr) -> TypedWire:
        bld = self.bld
        if isinstance(e, CVar):
            if e.name in self.wires:
                return self.wires[e.name]
            raise LoweringError(f"circuit variable {e.name} has no wire")
        if isinstance(e, CLit):
            return bld.const_wire(e.value, e.ctype.width, e.ctype.signed)
        if isinstance(e, CBin):
            left = self.coerce(self.eval_expr(e.left), e.op_type)
            if e.op in ("<<", ">>"):
                if not isinstance(e.right, CLit):
                    raise LoweringError("shift amounts on private values must be "
                                        "public constants")
                return bld.shift(e.op, left, e.right.value)
            right = self.coerce(self.eval_expr(e.right), e.op_type)
            return bld.binop(e.op, left, right)
        if isinstance(e, CUn):
            return bld.unop(e.op, self.eval_expr(e.operand))
        if isinstance(e, CCond):
            cond = self.eval_expr(e.cond)
            t = self.coerce(self.eval_expr(e.then_val), e.ctype)
            f = self.coerce(self.eval_expr(e.else_val), e.ctype)
            out = bld.mux(cond.lc, t, f)
            out.width, out.signed = e.ctype.width, e.ctype.signed
            return out
        if isinstance(e, CCast):
            return self.coerce(self.eval_expr(e.operand), e.ctype)
        raise LoweringError(f"cannot lower expression {e!r}")

    def coerce(self, tw: TypedWire, ct: CircType) -> TypedWire:
        if tw.width == ct.width and tw.signed == ct.signed:
            return tw
        return self.bld.cast(tw, ct.width, ct.signed)


def lower(flat: AbstractCircuit, backend: CryptoBackend, field: Field,
          in_total: int, out_total: int, hash_threshold: int,
          hash_mode: str = CONCAT) -> LoweredCircuit:
    return _Lowerer(flat, backend, field, in_total, out_total,
                    hash_threshold, hash_mode).run()

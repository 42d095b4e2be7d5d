"""Tree-walking evaluators for the transformed on-chain AST.

The mock chain and the off-chain transaction simulator execute the same
statement stream; they differ in how they treat the zk glue:

* on-chain: the `out` array and proof come from the transaction, ZkExec
  markers are ignored, and VerifyStmt runs the proof verifier;
* off-chain simulation: ZkExec markers execute the circuit statements in
  lockstep (decrypting private reads, computing private expressions,
  encrypting results into `out`) and VerifyStmt is a no-op because the
  proof is generated afterwards from the collected values.

Fixed-width integer semantics are shared with the circuits through intsem;
width-256 values inside circuit expressions use field semantics.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import ast, intsem
from .circuits import AbstractCircuit, FIELD_WIDTH
from .crypto import CryptoBackend, zero_cipher
from .field import Field
from .lang import (AddressType, BoolType, EnumType, IntType, MappingType,
                   NumberLiteralType)
from .transform import FnMeta, TransformedContract, common_op_ctype

LOOP_LIMIT = 1_000_000
ABSENT = object()  # journal entry for a key that did not exist


class RequireException(Exception):
    """A require condition failed (or an explicit revert occurred)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class VerificationFailed(Exception):
    def __init__(self, circuit: str):
        self.circuit = circuit
        super().__init__(f"proof verification failed for {circuit}")


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


def type_width(dtype) -> Tuple[int, bool]:
    if isinstance(dtype, BoolType):
        return 1, False
    if isinstance(dtype, IntType):
        return dtype.bits, dtype.signed
    if isinstance(dtype, AddressType):
        return 160, False
    if isinstance(dtype, EnumType):
        return 8, False
    if isinstance(dtype, NumberLiteralType):
        return 256, False
    raise TypeError(f"no width for {dtype}")


def walk_storage(tc: TransformedContract, var: str, node, key_path: Tuple):
    """Index the stored value `node` of state variable `var` with `key_path`;
    returns (node, dtype, label) at the end of the path, where a missing
    entry is None."""
    info = tc.tast.state.get(var)
    if info is None:
        raise RequireException(f"unknown state variable '{var}'")
    dtype = info.atype.dtype
    label = info.atype.label
    for key in key_path:
        if not isinstance(dtype, MappingType):
            raise RequireException(f"cannot index state variable '{var}'")
        node = None if node is None else node.get(key)
        label = dtype.value.label
        dtype = dtype.value.dtype
    return node, dtype, label


@dataclass
class Frame:
    fn: ast.FunctionDef
    meta: FnMeta
    scopes: List[Dict[str, Any]] = dc_field(default_factory=lambda: [{}])
    in_idx: int = 0
    out_idx: int = 0
    circuit: Optional[AbstractCircuit] = None
    cenv: Dict[str, Any] = dc_field(default_factory=dict)
    path: str = ""

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(name in s for s in self.scopes)

    def assign(self, name: str, value):
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise KeyError(name)

    def declare(self, name: str, value):
        self.scopes[-1][name] = value


class Evaluator:
    """Executes transformed contract code directly on a contract's storage
    dict and the chain's accounts dict; subclassed by the chain executor and
    the simulator.

    Every write goes through one undo journal of (variable, container, key,
    old value or ABSENT) entries, so `undo` restores both dicts exactly and
    `state_diff` needs no copy of the storage."""

    def __init__(self, tc: TransformedContract, backend: CryptoBackend,
                 field: Field, env: "TxEnv", storage: Dict[str, Any],
                 accounts: Dict[int, int], address: Optional[int]):
        self.tc = tc
        self.backend = backend
        self.field = field
        self.env = env
        self.storage = storage
        self.accounts = accounts
        self.address = address
        self.journal: List[Tuple[Optional[str], dict, Any, Any]] = []
        self.in_array: List[int] = []
        self.out_array: List[int] = []
        self.trace: Optional[Callable[[str], None]] = None

    # -- journaled state --

    def _set(self, var: Optional[str], container: dict, key, value):
        """Write `container[key]`; `var` names the state variable it belongs
        to, None for a balance."""
        self.journal.append((var, container, key, container.get(key, ABSENT)))
        container[key] = value

    def undo(self):
        """Restore storage and balances to their state before the first
        journaled write: created keys, intermediate dicts included, go."""
        for _var, container, key, old in reversed(self.journal):
            if old is ABSENT:
                del container[key]
            else:
                container[key] = old
        self.journal.clear()

    def state_diff(self) -> List[str]:
        """The state variables where some written location now differs from
        its value before the first write (rewriting a value is no change)."""
        seen, changed = set(), set()
        for var, container, key, old in self.journal:
            if var is None or (id(container), key) in seen:
                continue
            seen.add((id(container), key))
            if container.get(key, ABSENT) != old:
                changed.add(var)
        return sorted(changed)

    def storage_read(self, var: str, key_path: Tuple):
        node, dtype, label = walk_storage(self.tc, var, self.storage.get(var),
                                          key_path)
        if isinstance(dtype, MappingType):
            return node if node is not None else {}
        if node is None:
            return zero_cipher(self.backend) if not label.is_public else 0
        return node

    def storage_write(self, var: str, key_path: Tuple, value):
        if var not in self.tc.tast.state:
            raise RequireException(f"unknown state variable '{var}'")
        node, key = self.storage, var
        for next_key in key_path:
            child = node.get(key)
            if child is None:
                child = {}
                self._set(var, node, key, child)
            node, key = child, next_key
        self._set(var, node, key, value)

    def balance_of(self, address: int) -> int:
        return self.accounts.get(address, 0)

    def _move(self, frm: int, to: int, amount: int):
        self._set(None, self.accounts, frm, self.accounts.get(frm, 0) - amount)
        self._set(None, self.accounts, to, self.accounts.get(to, 0) + amount)

    def receive_value(self):
        """Move msg.value from the sender to the contract before execution."""
        if self.accounts.get(self.env.sender, 0) < self.env.value:
            raise RequireException("insufficient balance for value")
        self._move(self.env.sender, self.address, self.env.value)

    def do_transfer(self, to: int, amount: int, must_succeed: bool) -> int:
        if self.accounts.get(self.address, 0) < amount:
            if must_succeed:
                raise RequireException("transfer amount exceeds contract balance")
            return 0
        self._move(self.address, to, amount)
        return 1

    # -- environment interface (overridden) --

    def pki_get(self, address: int) -> int:
        raise NotImplementedError

    def on_verify(self, circuit: str):
        raise NotImplementedError

    def on_marker(self, frame: Frame, lo: int, hi: int):
        pass

    def on_call(self, frame: Frame, call: ast.TransformedCall, callee_frame: Frame):
        pass

    # -- entry --

    def call_function(self, name: str, args: List[Any], path: str = "",
                      in_idx: int = 0, out_idx: int = 0) -> Any:
        fn = self._fn(name)
        meta = self.tc.fn_meta[name]
        frame = Frame(fn=fn, meta=meta, in_idx=in_idx, out_idx=out_idx, path=path)
        if meta.circuit is not None:
            frame.circuit = self.tc.circuits[meta.circuit]
        if len(args) != len(fn.params):
            raise RequireException(f"{name} expects {len(fn.params)} arguments")
        for p, a in zip(fn.params, args):
            frame.declare(p.name, a)
        try:
            self.exec_block(frame, fn.body)
        except _ReturnSignal as r:
            return r.value
        return None

    def _fn(self, name: str) -> ast.FunctionDef:
        if name == "constructor":
            fn = self.tc.contract.constructor
            if fn is None:
                return ast.FunctionDef(name="constructor", params=[],
                                       body=ast.Block(stmts=[]), is_constructor=True)
            return fn
        for f in self.tc.contract.functions:
            if f.name == name:
                return f
        if self.tc.contract.constructor is not None and \
                self.tc.contract.constructor.name == name:
            return self.tc.contract.constructor
        raise RequireException(f"unknown function '{name}'")

    # -- statements --

    def exec_block(self, frame: Frame, blk: ast.Block):
        frame.scopes.append({})
        try:
            for s in blk.stmts:
                self.exec_stmt(frame, s)
        finally:
            frame.scopes.pop()

    def exec_stmt(self, frame: Frame, s: ast.Stmt):
        if isinstance(s, ast.Block):
            self.exec_block(frame, s)
        elif isinstance(s, ast.VarDeclStmt):
            if s.init is not None:
                value = self.eval(frame, s.init)
            else:
                value = self.default_value(s.ann_type)
            frame.declare(s.name, value)
        elif isinstance(s, ast.TupleVarDeclStmt):
            value = self.eval(frame, s.init)
            if not isinstance(value, tuple) or len(value) != len(s.names):
                raise RequireException("tuple arity mismatch")
            for name, v in zip(s.names, value):
                frame.declare(name, v)
        elif isinstance(s, ast.AssignStmt):
            self.exec_assign(frame, s)
        elif isinstance(s, ast.ExprStmt):
            self.eval(frame, s.expr)
        elif isinstance(s, ast.RequireStmt):
            if not self.eval(frame, s.cond):
                raise RequireException(f"require failed: {s.cond.code()}")
        elif isinstance(s, ast.ReturnStmt):
            raise _ReturnSignal(self.eval(frame, s.value) if s.value else None)
        elif isinstance(s, ast.IfStmt):
            if self.eval(frame, s.cond):
                self.exec_block(frame, s.then_branch)
            elif s.else_branch is not None:
                self.exec_block(frame, s.else_branch)
        elif isinstance(s, ast.WhileStmt):
            n = 0
            while self.eval(frame, s.cond):
                self.exec_block(frame, s.body)
                n += 1
                if n > LOOP_LIMIT:
                    raise RequireException("loop iteration limit exceeded")
        elif isinstance(s, ast.DoWhileStmt):
            n = 0
            while True:
                self.exec_block(frame, s.body)
                n += 1
                if not self.eval(frame, s.cond):
                    break
                if n > LOOP_LIMIT:
                    raise RequireException("loop iteration limit exceeded")
        elif isinstance(s, ast.ForStmt):
            frame.scopes.append({})
            try:
                if s.init is not None:
                    self.exec_stmt(frame, s.init)
                n = 0
                while s.cond is None or self.eval(frame, s.cond):
                    self.exec_block(frame, s.body)
                    if s.update is not None:
                        self.exec_stmt(frame, s.update)
                    n += 1
                    if n > LOOP_LIMIT:
                        raise RequireException("loop iteration limit exceeded")
            finally:
                frame.scopes.pop()
        elif isinstance(s, ast.ZkSlotAssign):
            value = self.eval(frame, s.value)
            base = (frame.in_idx if s.array == "in" else frame.out_idx) + s.slot
            arr = self.in_array if s.array == "in" else self.out_array
            if isinstance(value, tuple):
                for i, v in enumerate(value):
                    arr[base + i] = v % self.field.p
            else:
                arr[base] = int(value) % self.field.p
        elif isinstance(s, ast.AllocInStmt):
            self.in_array = [0] * s.total
        elif isinstance(s, ast.OutLenCheckStmt):
            if len(self.out_array) != s.total:
                raise RequireException(
                    f"out array has {len(self.out_array)} slots, expected {s.total}")
        elif isinstance(s, ast.VerifyStmt):
            self.on_verify(s.circuit)
        elif isinstance(s, ast.ZkExecMarker):
            self.on_marker(frame, s.lo, s.hi)
        else:
            raise RequireException(f"cannot execute statement {s.kind}")

    def exec_assign(self, frame: Frame, s: ast.AssignStmt):
        value = self.eval(frame, s.rhs)
        self.assign_lvalue(frame, s.lhs, value)

    def assign_lvalue(self, frame: Frame, lhs: ast.Expr, value):
        if isinstance(lhs, ast.TupleExpr):
            for item, v in zip(lhs.items, value):
                self.assign_lvalue(frame, item, v)
            return
        if isinstance(lhs, ast.Ident):
            if frame.has(lhs.name):
                frame.assign(lhs.name, value)
            else:
                self.storage_write(lhs.name, (), value)
            return
        if isinstance(lhs, ast.IndexExpr):
            keys = []
            base = lhs
            while isinstance(base, ast.IndexExpr):
                keys.append(self.eval(frame, base.index))
                base = base.base
            assert isinstance(base, ast.Ident)
            self.storage_write(base.name, tuple(reversed(keys)), value)
            return
        raise RequireException("expression is not assignable")

    def default_value(self, ann: ast.AnnotatedTypeName):
        if ann.label is not None and ann.label.name != "all":
            return zero_cipher(self.backend)
        return 0

    # -- expressions --

    def eval(self, frame: Frame, e: ast.Expr):
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.BoolLit):
            return 1 if e.value else 0
        if isinstance(e, ast.MeExpr):
            return self.env.sender
        if isinstance(e, ast.Ident):
            if frame.has(e.name):
                return frame.lookup(e.name)
            return self.storage_read(e.name, ())
        if isinstance(e, ast.IndexExpr):
            keys = []
            base = e
            while isinstance(base, ast.IndexExpr):
                keys.append(self.eval(frame, base.index))
                base = base.base
            if isinstance(base, ast.Ident):
                return self.storage_read(base.name, tuple(reversed(keys)))
            raise RequireException("cannot index this expression")
        if isinstance(e, ast.MemberExpr):
            return self.eval_member(frame, e)
        if isinstance(e, ast.BinOp):
            return self.eval_binop(frame, e)
        if isinstance(e, ast.UnOp):
            operand = self.eval(frame, e.operand)
            w, signed = self._expr_width(e)
            return intsem.unop(e.op, operand, w, signed)
        if isinstance(e, ast.CastExpr):
            value = self.eval(frame, e.operand)
            fw, fs = type_width(e.operand.atype.dtype)
            tw, ts = type_width(e.target.resolved)
            return intsem.cast(value, fw, fs, tw, ts)
        if isinstance(e, ast.CallExpr):
            return self.eval_call(frame, e)
        if isinstance(e, ast.TransformedCall):
            return self.eval_transformed_call(frame, e)
        if isinstance(e, ast.TupleExpr):
            return tuple(self.eval(frame, i) for i in e.items)
        if isinstance(e, ast.CipherVarRead):
            value = self.eval(frame, e.target)
            assert isinstance(value, tuple), "expected a ciphertext"
            return value
        if isinstance(e, ast.ZkSlotRef):
            base = (frame.in_idx if e.array == "in" else frame.out_idx) + e.slot
            arr = self.in_array if e.array == "in" else self.out_array
            if e.cipher or e.count > 1:
                return tuple(arr[base: base + e.count])
            return arr[base]
        if isinstance(e, ast.PkiGetExpr):
            return self.pki_get(self.eval(frame, e.addr))
        raise RequireException(f"cannot evaluate expression {e.kind}")

    def eval_member(self, frame: Frame, e: ast.MemberExpr):
        if isinstance(e.base, ast.Ident):
            pair = (e.base.name, e.member)
            if pair == ("msg", "sender"):
                return self.env.sender
            if pair == ("msg", "value"):
                return self.env.value
            if pair == ("block", "number"):
                return self.env.block_number
            if pair == ("block", "timestamp"):
                return self.env.timestamp
            if pair == ("tx", "origin"):
                return self.env.origin
            if e.base.name in {en.name for en in self.tc.contract.enums}:
                enum = next(en for en in self.tc.contract.enums
                            if en.name == e.base.name)
                return enum.members.index(e.member)
        base = self.eval(frame, e.base)
        if e.member == "balance":
            return self.balance_of(base)
        raise RequireException(f"unknown member '{e.member}'")

    def eval_binop(self, frame: Frame, e: ast.BinOp):
        if e.op == "&&":
            left = self.eval(frame, e.left)
            if not left:
                return 0
            return 1 if self.eval(frame, e.right) else 0
        if e.op == "||":
            left = self.eval(frame, e.left)
            if left:
                return 1
            return 1 if self.eval(frame, e.right) else 0
        left = self.eval(frame, e.left)
        right = self.eval(frame, e.right)
        ct = common_op_ctype(e.left.atype, e.right.atype) \
            if e.left.atype and e.right.atype else None
        if ct is None or ct.width == FIELD_WIDTH:
            w, signed = 256, False
            lt = e.left.atype.dtype if e.left.atype else None
            if isinstance(lt, IntType):
                w, signed = lt.bits, lt.signed
        else:
            w, signed = ct.width, ct.signed
        if e.op in ("<<", ">>"):
            return intsem.binop(e.op, left % (1 << w), right, w, signed)
        try:
            return intsem.binop(e.op, left % (1 << w), right % (1 << w), w, signed)
        except ZeroDivisionError:
            raise RequireException("division or modulo by zero")

    def _expr_width(self, e: ast.Expr) -> Tuple[int, bool]:
        atype = e.atype
        if atype is None or isinstance(atype.dtype, NumberLiteralType):
            return 256, False
        return type_width(atype.dtype)

    # -- calls --

    def eval_call(self, frame: Frame, e: ast.CallExpr):
        if isinstance(e.callee, ast.MemberExpr) and e.callee.member in ("transfer", "send"):
            to = self.eval(frame, e.callee.base)
            amount = self.eval(frame, e.args[0])
            return self.do_transfer(to, amount, e.callee.member == "transfer")
        assert isinstance(e.callee, ast.Ident)
        args = [self.eval(frame, a) for a in e.args]
        return self.call_function(e.callee.name, args, path=frame.path,
                                  in_idx=frame.in_idx, out_idx=frame.out_idx)

    def eval_transformed_call(self, frame: Frame, e: ast.TransformedCall):
        args = [self.eval(frame, a) for a in e.args]
        callee_meta = self.tc.fn_meta[e.fn]
        child_path = frame.path
        if callee_meta.circuit is not None:
            child_path = f"{frame.path}{e.callee_instance}:{callee_meta.circuit}/"
        fn = self._fn(e.fn)
        callee_frame = Frame(fn=fn, meta=callee_meta,
                             in_idx=frame.in_idx + e.in_offset,
                             out_idx=frame.out_idx + e.out_offset,
                             path=child_path)
        if callee_meta.circuit is not None:
            callee_frame.circuit = self.tc.circuits[callee_meta.circuit]
        for p, a in zip(fn.params, args):
            callee_frame.declare(p.name, a)
        self.on_call(frame, e, callee_frame)
        try:
            self.exec_block(callee_frame, fn.body)
        except _ReturnSignal as r:
            return r.value
        return None


@dataclass
class TxEnv:
    sender: int = 0
    value: int = 0
    origin: int = 0
    block_number: int = 0
    timestamp: int = 0

"""AST transformation: turn a checked contract into on-chain code plus
abstract proof circuits.

Every private expression is evaluated inside a circuit and its result read
back from the shared `out` array; private variable reads become dec-mode
encryption constraints over fresh secret inputs; private stores become
enc-mode constraints writing `out` ciphers; declassifications become
equality constraints against public out slots.  Public functions requiring
verification are split into an internal copy (with in/out section
parameters) and an external wrapper that allocates the input array, fetches
keys, stores encrypted arguments, calls the internal copy and invokes the
verifier exactly once.

The transformed statement stream carries invisible ZkExecMarker nodes so
the off-chain simulator can execute circuit statements in lockstep with the
on-chain code (inside the same branches and short-circuit paths).
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set, Tuple

from . import ast
from .analysis import TypedAst
from .circuits import (AbstractCircuit, BOOL_T, CBin, CCall, CCast, CCond,
                       CDecl, CEnc, CEq, CExpr, CGuardPop, CGuardPush, CLit,
                       CUn, CVar, CircType, CircuitVar, FIELD_T, KeyRef,
                       ROLE_KEY, ROLE_PARAM, ROLE_PRIV, ROLE_PUB_IN,
                       ROLE_PUB_OUT, SectionLayout, ctype_of, layout_io)
from .crypto import CryptoBackend
from .lang import (AnnotatedType, BoolType, LABEL_ALL, LABEL_ME,
                   MappingType, NumberLiteralType, PrivacyLabel, label_ident)

ZK_PREFIX = "zk_"


class TransformError(Exception):
    pass


@dataclass
class FnMeta:
    """On-chain shape of one transformed function."""

    name: str
    original: str
    kind: str  # 'plain' | 'internal' | 'wrapper'
    circuit: Optional[str] = None
    needs_sections: bool = False
    section_in: int = 0   # total section length including callees
    section_out: int = 0
    param_private: List[bool] = dc_field(default_factory=list)
    inner: Optional[str] = None  # wrapper -> internal name
    wrapper: Optional[str] = None  # original external name when split


@dataclass
class EntryInfo:
    fn: str
    root_circuit: str
    layout: SectionLayout
    required_keys: List[str]  # 'me' or identifier label names, fetch order
    key_slot: Dict[str, int] = dc_field(default_factory=dict)
    in_total: int = 0
    out_total: int = 0


@dataclass
class TransformedContract:
    name: str
    contract: ast.ContractDef
    circuits: Dict[str, AbstractCircuit]
    fn_meta: Dict[str, FnMeta]
    entries: Dict[str, EntryInfo]
    tast: TypedAst
    backend_name: str = "dummy"


# --- constant folding ------------------------------------------------------------


def fold_constants(expr: ast.Expr) -> ast.Expr:
    """Replace literal-valued subexpressions (number-literal typed) with
    literal nodes; folding is value-based on literals only."""
    for name in ("left", "right", "operand", "expr", "inner"):
        child = getattr(expr, name, None)
        if isinstance(child, ast.Expr):
            setattr(expr, name, fold_constants(child))
    if hasattr(expr, "args"):
        expr.args = [fold_constants(a) for a in expr.args]
    if hasattr(expr, "items"):
        expr.items = [fold_constants(i) for i in expr.items]
    atype = getattr(expr, "atype", None)
    if atype is not None and isinstance(atype.dtype, NumberLiteralType) \
            and not isinstance(expr, ast.IntLit):
        lit = ast.IntLit(span=expr.span, value=atype.dtype.value)
        lit.atype = atype
        return lit
    return expr


# --- helpers ---------------------------------------------------------------------


def _clone(e: ast.Expr) -> ast.Expr:
    return copy.deepcopy(e)


def lvalue_key(e: ast.Expr) -> str:
    """Canonical identity of an assignable location for versioning/caching."""
    return e.code()


def base_name_of(e: ast.Expr) -> Optional[str]:
    while isinstance(e, ast.IndexExpr):
        e = e.base
    if isinstance(e, ast.Ident):
        return e.name
    return None


def common_op_ctype(lt: AnnotatedType, rt: AnnotatedType) -> CircType:
    """Operand type an operator runs at (literals adapt to the other side)."""
    ld, rd = lt.dtype, rt.dtype
    if isinstance(ld, NumberLiteralType) and isinstance(rd, NumberLiteralType):
        return FIELD_T
    if isinstance(ld, NumberLiteralType):
        return ctype_of(rd)
    if isinstance(rd, NumberLiteralType):
        return ctype_of(ld)
    lc, rc = ctype_of(ld), ctype_of(rd)
    return lc if lc.width >= rc.width else rc


# --- per-function transformer ---------------------------------------------------------


class FunctionTransformer:
    def __init__(self, parent: "ContractTransformer", fn: ast.FunctionDef,
                 circuit_name: str):
        self.parent = parent
        self.tast = parent.tast
        self.backend = parent.backend
        self.fn = fn
        self.circuit = AbstractCircuit(name=circuit_name)
        self.counter: Dict[str, int] = {}
        self.versions: Dict[str, int] = {}
        self.import_cache: Dict[Tuple[str, int], str] = {}
        self.pending: List[ast.Stmt] = []
        self.call_sites: List[Tuple[str, ast.TransformedCall]] = []
        self.guard_depth = 0
        self.marker_cursor = 0
        self.section_in = 0
        self.section_out = 0

    # -- naming --

    def fresh(self, kind: str) -> str:
        n = self.counter.get(kind, 0)
        self.counter[kind] = n + 1
        return f"{kind}{n}"

    def version_of(self, key: str) -> int:
        base = key.split("[")[0]
        return self.versions.get(base, 0)

    def bump_version(self, e: ast.Expr):
        base = base_name_of(e)
        if base is not None:
            self.versions[base] = self.versions.get(base, 0) + 1

    # -- circuit variable allocation --

    def new_pub_in(self, hint: str, ctype: Optional[CircType], slots: int = 1,
                   comment: str = "") -> CircuitVar:
        name = self.fresh("in") + "_" + hint
        var = CircuitVar(name, ROLE_PUB_IN, ctype, slots,
                         slot_offset=self.circuit.own_in_slots, comment=comment)
        self.circuit.own_in_slots += slots
        return self.circuit.add_var(var)

    def new_pub_out(self, hint: str, ctype: Optional[CircType], slots: int = 1,
                    comment: str = "") -> CircuitVar:
        name = self.fresh("out") + "_" + hint
        var = CircuitVar(name, ROLE_PUB_OUT, ctype, slots,
                         slot_offset=self.circuit.own_out_slots, comment=comment)
        self.circuit.own_out_slots += slots
        return self.circuit.add_var(var)

    def new_priv(self, hint: str, ctype: Optional[CircType]) -> CircuitVar:
        return self.circuit.add_var(CircuitVar(self.fresh(hint), ROLE_PRIV, ctype))

    def new_local(self, ctype: CircType, hint: str = "tmp") -> CircuitVar:
        return self.circuit.add_var(CircuitVar(self.fresh(hint), "local", ctype))

    def use_key(self, label: PrivacyLabel) -> KeyRef:
        name = "me" if label.is_me else label.name
        if name not in self.circuit.key_labels:
            self.circuit.key_labels.append(name)
        return KeyRef("global", name)

    def require_sk(self):
        if self.backend.hybrid:
            self.circuit.needs_sk = True
            if "me" not in self.circuit.key_labels:
                self.circuit.key_labels.append("me")

    # -- imports into the circuit --

    def import_public(self, expr: ast.Expr, hint: str = "plain") -> CVar:
        """Bring a public on-chain value into the circuit as an input slot."""
        ct = ctype_of(expr.atype.dtype)
        cache_key = None
        if isinstance(expr, (ast.Ident, ast.IndexExpr, ast.MeExpr)) or \
                (isinstance(expr, ast.MemberExpr) and isinstance(expr.base, ast.Ident)):
            cache_key = (lvalue_key(expr), self.version_of(lvalue_key(expr)))
            if cache_key in self.import_cache:
                name = self.import_cache[cache_key]
                return CVar(name, self.circuit.vars[name].ctype)
        var = self.new_pub_in(hint, ct, comment=expr.code())
        self.pending.append(ast.ZkSlotAssign(array="in", slot=var.slot_offset,
                                             value=expr))
        if cache_key is not None:
            self.import_cache[cache_key] = var.name
        return CVar(var.name, ct)

    def import_cipher_read(self, expr: ast.Expr) -> CVar:
        """Read of a private location inside a private expression: import the
        ciphertext and constrain a fresh secret plaintext via dec mode."""
        key = lvalue_key(expr)
        cache_key = (key, self.version_of(key))
        if cache_key in self.import_cache:
            name = self.import_cache[cache_key]
            return CVar(name, self.circuit.vars[name].ctype)
        ct = ctype_of(expr.atype.dtype)
        cipher = self.new_pub_in("cipher", None, self.backend.cipher_slots,
                                 comment=expr.code())
        self.pending.append(ast.ZkSlotAssign(
            array="in", slot=cipher.slot_offset,
            value=ast.CipherVarRead(span=expr.span, target=expr),
            count=self.backend.cipher_slots))
        secret = self.new_priv("secret", ct)
        secret.comment = expr.code()
        rnd = self.new_priv("rnd", None)
        keyref = self.use_key(expr.atype.label)
        self.require_sk()
        self.circuit.stmts.append(CEnc(plain=secret.name, key=keyref, rnd=rnd.name,
                                       cipher=cipher.name, mode="dec",
                                       comment=f"{expr.code()} = dec({cipher.name})"))
        self.import_cache[cache_key] = secret.name
        return CVar(secret.name, ct)

    # -- building circuit expressions --

    def to_cexpr(self, e: ast.Expr, env: Optional[Dict[str, CExpr]] = None) -> CExpr:
        atype = e.atype
        if isinstance(e, ast.ReclassifyExpr):
            inner = e.expr
            if isinstance(inner.atype.dtype, NumberLiteralType):
                folded = fold_constants(inner)
                return CLit(folded.value, ctype_of(atype.dtype)
                            if not isinstance(atype.dtype, NumberLiteralType) else FIELD_T)
            return self.import_public(inner)
        if isinstance(e, ast.IntLit):
            return CLit(e.value, FIELD_T if isinstance(atype.dtype, NumberLiteralType)
                        else ctype_of(atype.dtype))
        if isinstance(e, ast.BoolLit):
            return CLit(int(e.value), BOOL_T)
        if isinstance(e, (ast.Ident, ast.IndexExpr)):
            if env is not None:
                hit = env.get(lvalue_key(e))
                if hit is not None:
                    return hit
            if atype.is_private:
                if isinstance(e, ast.Ident) and e.name in self.circuit.vars \
                        and self.circuit.vars[e.name].role == ROLE_PARAM:
                    return CVar(e.name, self.circuit.vars[e.name].ctype)
                return self.import_cipher_read(e)
            return self.import_public(e)
        if isinstance(e, (ast.MeExpr, ast.MemberExpr)):
            return self.import_public(e)
        if isinstance(e, ast.BinOp):
            op_ct = common_op_ctype(e.left.atype, e.right.atype)
            result_ct = BOOL_T if isinstance(atype.dtype, BoolType) else op_ct
            left = self.coerce(self.to_cexpr(e.left, env), op_ct)
            right = self.to_cexpr(e.right, env)
            if e.op not in ("<<", ">>"):
                right = self.coerce(right, op_ct)
            return CBin(e.op, left, right, result_ct, op_ct)
        if isinstance(e, ast.UnOp):
            operand = self.to_cexpr(e.operand, env)
            ct = BOOL_T if e.op == "!" else operand.ctype
            return CUn(e.op, operand, ct)
        if isinstance(e, ast.CastExpr):
            return CCast(self.to_cexpr(e.operand, env), ctype_of(atype.dtype))
        if isinstance(e, ast.RevealExpr):
            # owner changes matter only at store boundaries; inside the
            # circuit the plaintext value is the same wire
            return self.to_cexpr(e.expr, env)
        if isinstance(e, ast.CallExpr):
            return self.inline_pure_call(e, env)
        raise TransformError(f"cannot evaluate {e.kind} inside a circuit")

    def coerce(self, ce: CExpr, target: CircType) -> CExpr:
        if ce.ctype == target:
            return ce
        if isinstance(ce, CLit):
            return CLit(ce.value, target)
        return CCast(ce, target)

    def decl_temp(self, ce: CExpr, hint: str = "tmp", comment: str = "") -> CVar:
        if isinstance(ce, CVar):
            return ce
        var = self.new_local(ce.ctype, hint)
        self.circuit.stmts.append(CDecl(var.name, ce, comment=comment))
        return CVar(var.name, ce.ctype)

    # -- private stores / declassification --

    def store_private(self, lvalue: ast.Expr, value: CExpr,
                      label: PrivacyLabel) -> ast.Expr:
        """Encrypt a circuit value for `label` into a fresh out-cipher; the
        returned on-chain expression reads those slots."""
        ct = ctype_of(lvalue.atype.dtype) if lvalue.atype else value.ctype
        value = self.coerce(value, ct)
        tmp = self.decl_temp(value, comment=lvalue.code() if lvalue else "")
        cipher = self.new_pub_out("cipher", None, self.backend.cipher_slots,
                                  comment=lvalue.code() if lvalue else "")
        rnd = self.new_priv("rnd", None)
        keyref = self.resolve_store_key(lvalue, label)
        self.require_sk()
        self.circuit.stmts.append(CEnc(plain=tmp.name, key=keyref, rnd=rnd.name,
                                       cipher=cipher.name, mode="enc",
                                       comment=f"{cipher.name} = enc({tmp.name})"))
        return ast.ZkSlotRef(array="out", slot=cipher.slot_offset,
                             count=self.backend.cipher_slots, cipher=True)

    def resolve_store_key(self, lvalue: Optional[ast.Expr],
                          label: PrivacyLabel) -> KeyRef:
        """Tagged-mapping owners depend on the index value and are fetched
        per access; everything else uses a globally fetched key."""
        if lvalue is not None and isinstance(lvalue, ast.IndexExpr) \
                and not label.is_me and not label.is_public:
            base_t = lvalue.base.atype.dtype if lvalue.base.atype else None
            if isinstance(base_t, MappingType) and base_t.tag is not None:
                var = self.new_pub_in("key", FIELD_T, comment=f"pk({label.name})")
                self.pending.append(ast.ZkSlotAssign(
                    array="in", slot=var.slot_offset,
                    value=ast.PkiGetExpr(span=lvalue.span, addr=_clone(lvalue.index))))
                return KeyRef("slot", var.name)
        return self.use_key(label)

    def declassify(self, value: CExpr) -> ast.Expr:
        tmp = self.decl_temp(value, hint="reveal")
        out = self.new_pub_out("plain", value.ctype)
        self.circuit.stmts.append(CEq(tmp.name, out.name,
                                      comment=f"{out.name} = {tmp.name}"))
        return ast.ZkSlotRef(array="out", slot=out.slot_offset)

    def inline_pure_call(self, e: ast.CallExpr,
                         env: Optional[Dict[str, CExpr]]) -> CExpr:
        """Inline the body of a pure/view function called inside a private
        expression directly into the caller's circuit."""
        callee = self.parent.fn_by_name(e.callee.name)
        local_env: Dict[str, CExpr] = {}
        for param, arg in zip(callee.params, e.args):
            if arg.atype is not None and arg.atype.is_private:
                local_env[param.name] = self.to_cexpr(arg, env)
            elif isinstance(arg, ast.ReclassifyExpr):
                local_env[param.name] = self.to_cexpr(arg, env)
            else:
                local_env[param.name] = self.to_cexpr_public_value(arg)
        for stmt in callee.body.stmts:
            if isinstance(stmt, ast.VarDeclStmt):
                if stmt.init is None:
                    local_env[stmt.name] = CLit(0, ctype_of(stmt.ann_type.base.resolved))
                else:
                    local_env[stmt.name] = self.to_cexpr(stmt.init, local_env)
            elif isinstance(stmt, ast.AssignStmt) and isinstance(stmt.lhs, ast.Ident):
                local_env[stmt.lhs.name] = self.to_cexpr(stmt.rhs, local_env)
            elif isinstance(stmt, ast.ReturnStmt):
                return self.to_cexpr(stmt.value, local_env)
            else:
                raise TransformError(
                    f"cannot inline statement {stmt.kind} of '{callee.name}'")
        raise TransformError(f"'{callee.name}' has no return statement to inline")

    def to_cexpr_public_value(self, arg: ast.Expr) -> CExpr:
        if isinstance(arg.atype.dtype, NumberLiteralType):
            folded = fold_constants(arg)
            return CLit(folded.value, FIELD_T)
        return self.import_public(arg)

    # -- statements ---------------------------------------------------------

    def transform_body(self) -> ast.Block:
        body = self.transform_block(self.fn.body)
        self.circuit.validate()
        return body

    def transform_block(self, blk: ast.Block) -> ast.Block:
        out: List[ast.Stmt] = []
        for s in blk.stmts:
            out.extend(self.transform_stmt(s))
        return ast.Block(span=blk.span, stmts=out)

    def transform_stmt(self, s: ast.Stmt) -> List[ast.Stmt]:
        """Transform one statement into [in-fills] [marker] [rewritten]."""
        saved_pending = self.pending
        saved_cursor = self.marker_cursor
        self.pending = []
        self.marker_cursor = len(self.circuit.stmts)
        rewritten = self.rewrite_stmt(s)
        fills = self.pending
        self.pending = saved_pending
        out = list(fills)
        hi = len(self.circuit.stmts)
        if hi > self.marker_cursor:
            out.append(ast.ZkExecMarker(lo=self.marker_cursor, hi=hi))
        self.marker_cursor = saved_cursor
        return out + rewritten

    def flush_marker(self):
        """Emit a marker for circuit statements produced so far, so the
        simulator runs them before the next pending on-chain statement."""
        hi = len(self.circuit.stmts)
        if hi > self.marker_cursor:
            self.pending.append(ast.ZkExecMarker(lo=self.marker_cursor, hi=hi))
        self.marker_cursor = hi

    def rewrite_stmt(self, s: ast.Stmt) -> List[ast.Stmt]:
        if isinstance(s, ast.Block):
            return [self.transform_block(s)]
        if isinstance(s, ast.VarDeclStmt):
            return self.rewrite_var_decl(s)
        if isinstance(s, ast.TupleVarDeclStmt):
            return self.rewrite_tuple_decl(s)
        if isinstance(s, ast.AssignStmt):
            return self.rewrite_assign(s)
        if isinstance(s, ast.ExprStmt):
            expr = self.transform_expr(s.expr)
            return [ast.ExprStmt(span=s.span, expr=expr)]
        if isinstance(s, ast.RequireStmt):
            return [ast.RequireStmt(span=s.span, cond=self.transform_expr(s.cond))]
        if isinstance(s, ast.ReturnStmt):
            return self.rewrite_return(s)
        if isinstance(s, ast.IfStmt):
            return self.rewrite_if(s)
        if isinstance(s, ast.WhileStmt):
            return [ast.WhileStmt(span=s.span, cond=self.transform_expr(s.cond),
                                  body=self.transform_block(s.body))]
        if isinstance(s, ast.DoWhileStmt):
            return [ast.DoWhileStmt(span=s.span, body=self.transform_block(s.body),
                                    cond=self.transform_expr(s.cond))]
        if isinstance(s, ast.ForStmt):
            init = self.transform_stmt(s.init) if s.init else []
            cond = self.transform_expr(s.cond) if s.cond else None
            update = None
            if s.update is not None:
                upd = self.transform_stmt(s.update)
                assert len(upd) == 1, "loop updates cannot carry circuit content"
                update = upd[0]
            body = self.transform_block(s.body)
            init_stmt = init[-1] if init else None
            return list(init[:-1]) + [ast.ForStmt(span=s.span, init=init_stmt,
                                                  cond=cond, update=update, body=body)]
        raise TransformError(f"cannot transform statement {s.kind}")

    def rewrite_var_decl(self, s: ast.VarDeclStmt) -> List[ast.Stmt]:
        atype = self._decl_atype(s)
        if atype.is_public:
            init = self.transform_expr(s.init) if s.init is not None else None
            return [ast.VarDeclStmt(span=s.span, name=s.name, ann_type=s.ann_type,
                                    init=init)]
        decl = ast.VarDeclStmt(span=s.span, name=s.name, ann_type=s.ann_type,
                               init=None)
        if s.init is None:
            return [decl]  # zero ciphertext by default initialization
        lv = ast.Ident(span=s.span, name=s.name)
        lv.atype = atype
        decl.init = self.private_value_expr(s.init, lv, atype)
        return [decl]

    def _decl_atype(self, s: ast.VarDeclStmt) -> AnnotatedType:
        label = LABEL_ALL
        if s.ann_type.label is not None and s.ann_type.label.name != "all":
            label = LABEL_ME if s.ann_type.label.name == "me" \
                else label_ident(s.ann_type.label.name)
        return AnnotatedType(s.ann_type.base.resolved, label)

    def private_value_expr(self, rhs: ast.Expr, lvalue: ast.Expr,
                           atype: AnnotatedType) -> ast.Expr:
        """On-chain expression producing the ciphertext for a private store."""
        if isinstance(rhs, (ast.Ident, ast.IndexExpr)) and rhs.atype is not None \
                and rhs.atype.is_private:
            return ast.CipherVarRead(span=rhs.span, target=rhs)  # same-owner copy
        if isinstance(rhs, ast.RevealExpr) and \
                isinstance(rhs.expr, (ast.Ident, ast.IndexExpr)) and \
                rhs.expr.atype is not None and rhs.expr.atype.is_private and \
                self._same_owner(rhs.expr.atype.label, atype.label):
            return ast.CipherVarRead(span=rhs.span, target=rhs.expr)
        if isinstance(rhs, ast.CallExpr) and isinstance(rhs.callee, ast.Ident) \
                and rhs.atype is not None and rhs.atype.is_private:
            # a statement-level call returns its result as a ciphertext
            return self.transform_call(rhs)
        value = self.to_cexpr(rhs)
        return self.store_private(lvalue, value, atype.label)

    @staticmethod
    def _same_owner(a: PrivacyLabel, b: PrivacyLabel) -> bool:
        return a == b

    def rewrite_tuple_decl(self, s: ast.TupleVarDeclStmt) -> List[ast.Stmt]:
        init = self.transform_expr(s.init)
        return [ast.TupleVarDeclStmt(span=s.span, names=s.names,
                                     ann_types=s.ann_types, init=init)]

    def rewrite_assign(self, s: ast.AssignStmt) -> List[ast.Stmt]:
        if isinstance(s.lhs, ast.TupleExpr):
            return self.rewrite_tuple_assign(s)
        lhs_type = s.lhs.atype
        if lhs_type is None or lhs_type.is_public:
            rhs = self.transform_expr(s.rhs)
            out = [ast.AssignStmt(span=s.span, lhs=s.lhs, op="=", rhs=rhs)]
            self.bump_version(s.lhs)
            return out
        rhs = self.private_value_expr(s.rhs, s.lhs, lhs_type)
        self.bump_version(s.lhs)
        return [ast.AssignStmt(span=s.span, lhs=s.lhs, op="=", rhs=rhs)]

    def rewrite_tuple_assign(self, s: ast.AssignStmt) -> List[ast.Stmt]:
        """Flatten component-wise through temporaries (swap-safe)."""
        out: List[ast.Stmt] = []
        temps: List[ast.Expr] = []
        if not isinstance(s.rhs, ast.TupleExpr):
            rhs = self.transform_expr(s.rhs)
            return [ast.AssignStmt(span=s.span, lhs=s.lhs, op="=", rhs=rhs)]
        for i, (lv, rv) in enumerate(zip(s.lhs.items, s.rhs.items)):
            name = f"{ZK_PREFIX}t{self.fresh('tup')}"
            atype = lv.atype
            if atype is not None and atype.is_private:
                value = self.private_value_expr(rv, lv, atype)
            else:
                value = self.transform_expr(rv)
            ann = _ann_type_node(atype)
            out.append(ast.VarDeclStmt(span=s.span, name=name, ann_type=ann,
                                       init=value))
            temps.append(ast.Ident(span=s.span, name=name))
            temps[-1].atype = atype
        for lv, tmp in zip(s.lhs.items, temps):
            if lv.atype is not None and lv.atype.is_private:
                copy_expr: ast.Expr = ast.CipherVarRead(span=s.span, target=tmp)
            else:
                copy_expr = tmp
            out.append(ast.AssignStmt(span=s.span, lhs=lv, op="=", rhs=copy_expr))
            self.bump_version(lv)
        return out

    def rewrite_return(self, s: ast.ReturnStmt) -> List[ast.Stmt]:
        if s.value is None:
            return [s]
        value = self.return_value_expr(s.value, self.fn.returns[0]
                                       if len(self.fn.returns) == 1 else None)
        return [ast.ReturnStmt(span=s.span, value=value)]

    def return_value_expr(self, v: ast.Expr, ret_ann) -> ast.Expr:
        if isinstance(v, ast.TupleExpr):
            items = [self.return_value_expr(i, None) for i in v.items]
            new = ast.TupleExpr(span=v.span, items=items)
            new.atype = v.atype
            return new
        if v.atype is not None and v.atype.is_private:
            lv = ast.Ident(span=v.span, name="<return>")
            lv.atype = v.atype
            return self.private_value_expr(v, lv, v.atype)
        return self.transform_expr(v)

    # -- if statements --

    def rewrite_if(self, s: ast.IfStmt) -> List[ast.Stmt]:
        if s.cond.atype is not None and s.cond.atype.is_private:
            return self.rewrite_private_if(s)
        cond = self.transform_expr(s.cond)
        has_content = self._branch_has_private(s.then_branch) or \
            (s.else_branch is not None and self._branch_has_private(s.else_branch))
        if not has_content:
            return [ast.IfStmt(span=s.span, cond=cond,
                               then_branch=self.transform_block(s.then_branch),
                               else_branch=self.transform_block(s.else_branch)
                               if s.else_branch else None)]
        # import the condition bit so circuit guards match the taken branch
        guard = self.import_public(cond_as_typed(cond, s.cond), hint="guard")
        self.flush_marker()
        cond_ref = ast.ZkSlotRef(array="in",
                                 slot=self.circuit.vars[guard.name].slot_offset)
        cond_ref.atype = s.cond.atype
        then_b = self._guarded_block(s.then_branch, guard.name, True)
        else_b = self._guarded_block(s.else_branch, guard.name, False) \
            if s.else_branch else None
        # branch circuit ranges are covered by markers inside the branches
        self.marker_cursor = len(self.circuit.stmts)
        return [ast.IfStmt(span=s.span, cond=cond_ref, then_branch=then_b,
                           else_branch=else_b)]

    def _branch_has_private(self, blk: ast.Block) -> bool:
        for node in ast.walk(blk):
            atype = getattr(node, "atype", None)
            if atype is not None and isinstance(atype, AnnotatedType) and atype.is_private:
                return True
            if isinstance(node, (ast.RevealExpr, ast.ReclassifyExpr)):
                return True
            if isinstance(node, ast.CallExpr) and isinstance(node.callee, ast.Ident):
                summary = self.tast.summaries.get(node.callee.name)
                if summary is not None and summary.requires_verification:
                    return True
        return False

    def _guarded_block(self, blk: ast.Block, guard_var: str,
                       expected: bool) -> ast.Block:
        self.circuit.stmts.append(CGuardPush(guard_var, expected))
        self.guard_depth += 1
        # writes inside a conditional branch invalidate cached imports
        saved_cache = dict(self.import_cache)
        body = self.transform_block(blk)
        self.import_cache = saved_cache
        for node in ast.walk(blk):
            if isinstance(node, ast.AssignStmt):
                targets = node.lhs.items if isinstance(node.lhs, ast.TupleExpr) \
                    else [node.lhs]
                for t in targets:
                    self.bump_version(t)
        self.guard_depth -= 1
        self.circuit.stmts.append(CGuardPop())
        return body

    def rewrite_private_if(self, s: ast.IfStmt) -> List[ast.Stmt]:
        """Both branches are evaluated inside the circuit; every variable
        assigned in either branch receives a fresh re-encrypted value chosen
        by a conditional-select expression."""
        cond = self.decl_temp(self.to_cexpr(s.cond), hint="cond",
                              comment=s.cond.code())
        assigned: Dict[str, ast.Expr] = {}
        self._collect_assigned(s.then_branch, assigned)
        if s.else_branch:
            self._collect_assigned(s.else_branch, assigned)
        env_then = self._eval_private_block(s.then_branch, {})
        env_else = self._eval_private_block(s.else_branch, {}) if s.else_branch else {}
        out: List[ast.Stmt] = []
        for key in sorted(assigned):
            lvalue = assigned[key]
            ct = ctype_of(lvalue.atype.dtype)
            then_v = self.coerce(env_then.get(key) or self.to_cexpr(lvalue), ct)
            else_v = self.coerce(env_else.get(key) or self.to_cexpr(lvalue), ct)
            sel = CCond(cond, then_v, else_v, ct)
            cipher_expr = self.store_private(lvalue, sel, lvalue.atype.label)
            out.append(ast.AssignStmt(span=s.span, lhs=lvalue, op="=",
                                      rhs=cipher_expr))
            self.bump_version(lvalue)
        return out

    def _collect_assigned(self, blk: ast.Block, acc: Dict[str, ast.Expr]):
        declared: Set[str] = set()
        for st in blk.stmts:
            if isinstance(st, ast.VarDeclStmt):
                declared.add(st.name)
            elif isinstance(st, ast.AssignStmt):
                key = lvalue_key(st.lhs)
                base = base_name_of(st.lhs)
                if base in declared:
                    continue
                acc.setdefault(key, st.lhs)
            elif isinstance(st, ast.IfStmt):
                self._collect_assigned(st.then_branch, acc)
                if st.else_branch:
                    self._collect_assigned(st.else_branch, acc)
            elif isinstance(st, ast.Block):
                self._collect_assigned(st, acc)

    def _eval_private_block(self, blk: ast.Block,
                            env: Dict[str, CExpr]) -> Dict[str, CExpr]:
        env = dict(env)
        for st in blk.stmts:
            if isinstance(st, ast.VarDeclStmt):
                if st.init is None:
                    env[st.name] = CLit(0, ctype_of(st.ann_type.base.resolved))
                else:
                    env[st.name] = self.to_cexpr(st.init, env)
            elif isinstance(st, ast.AssignStmt):
                env[lvalue_key(st.lhs)] = self.coerce(
                    self.to_cexpr(st.rhs, env), ctype_of(st.lhs.atype.dtype))
            elif isinstance(st, ast.IfStmt):
                cond = self.decl_temp(self.to_cexpr(st.cond, env), hint="cond")
                env_t = self._eval_private_block(st.then_branch, env)
                env_e = self._eval_private_block(st.else_branch, env) \
                    if st.else_branch else dict(env)
                keys = set(env_t) | set(env_e)
                for key in sorted(keys):
                    t = env_t.get(key)
                    e = env_e.get(key)
                    if t is None and e is None:
                        continue
                    base = env.get(key)
                    if t is None:
                        t = base if base is not None else self._reread(key, blk)
                    if e is None:
                        e = base if base is not None else self._reread(key, blk)
                    if t is e:
                        env[key] = t
                        continue
                    ct = t.ctype
                    env[key] = CCond(cond, t, self.coerce(e, ct), ct)
            elif isinstance(st, ast.Block):
                env = self._eval_private_block(st, env)
            else:
                raise TransformError(
                    f"statement {st.kind} not supported under a private condition")
        return env

    def _reread(self, key: str, blk: ast.Block) -> CExpr:
        raise TransformError(
            f"variable '{key}' is assigned under a nested private condition "
            "but has no value on the other path")

    # -- expressions in public context --

    def transform_expr(self, e: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if e is None:
            return None
        if isinstance(e, ast.RevealExpr):
            target = e.target.name
            if target == "all":
                value = self.to_cexpr(e.expr)
                out_ref = self.declassify(value)
                out_ref.atype = e.atype
                return out_ref
            raise TransformError("a reveal to an owner must be stored or passed "
                                 "as a private argument")
        if isinstance(e, ast.CallExpr):
            return self.transform_call(e)
        if isinstance(e, ast.BinOp):
            if e.op in ("&&", "||") and self._branch_has_private_expr(e.right):
                return self.transform_short_circuit(e)
            new = ast.BinOp(span=e.span, op=e.op, left=self.transform_expr(e.left),
                            right=self.transform_expr(e.right))
            new.atype = e.atype
            return new
        if isinstance(e, ast.UnOp):
            new = ast.UnOp(span=e.span, op=e.op,
                           operand=self.transform_expr(e.operand), prefix=e.prefix)
            new.atype = e.atype
            return new
        if isinstance(e, ast.IndexExpr):
            new = ast.IndexExpr(span=e.span, base=self.transform_expr(e.base),
                                index=self.transform_expr(e.index))
            new.atype = e.atype
            return new
        if isinstance(e, ast.MemberExpr):
            new = ast.MemberExpr(span=e.span, base=self.transform_expr(e.base),
                                 member=e.member)
            new.atype = e.atype
            return new
        if isinstance(e, ast.CastExpr):
            new = ast.CastExpr(span=e.span, target=e.target,
                               operand=self.transform_expr(e.operand))
            new.atype = e.atype
            return new
        if isinstance(e, ast.TupleExpr):
            new = ast.TupleExpr(span=e.span,
                                items=[self.transform_expr(i) for i in e.items])
            new.atype = e.atype
            return new
        if isinstance(e, ast.ReclassifyExpr):
            raise TransformError("implicit classification outside a private store")
        return e  # literals, identifiers, me

    def _branch_has_private_expr(self, e: ast.Expr) -> bool:
        for node in ast.walk(e):
            atype = getattr(node, "atype", None)
            if atype is not None and isinstance(atype, AnnotatedType) and atype.is_private:
                return True
            if isinstance(node, (ast.RevealExpr, ast.ReclassifyExpr)):
                return True
            if isinstance(node, ast.CallExpr) and isinstance(node.callee, ast.Ident):
                summary = self.tast.summaries.get(node.callee.name)
                if summary is not None and (summary.requires_verification):
                    return True
        return False

    def transform_short_circuit(self, e: ast.BinOp) -> ast.Expr:
        """Constraints arising from the right operand of && / || are only
        checked when the left operand does not short-circuit."""
        left = self.transform_expr(e.left)
        guard = self.import_public(cond_as_typed(left, e.left), hint="guard")
        guard_slot = self.circuit.vars[guard.name].slot_offset
        expected = e.op == "&&"  # right operand evaluated when left == expected
        self.circuit.stmts.append(CGuardPush(guard.name, expected))
        right = self.transform_expr(e.right)
        self.circuit.stmts.append(CGuardPop())
        left_ref = ast.ZkSlotRef(array="in", slot=guard_slot)
        left_ref.atype = e.left.atype
        new = ast.BinOp(span=e.span, op=e.op, left=left_ref, right=right)
        new.atype = e.atype
        return new

    # -- calls --

    def transform_call(self, e: ast.CallExpr) -> ast.Expr:
        if isinstance(e.callee, ast.MemberExpr):
            # transfer/send on addresses
            new = ast.CallExpr(span=e.span,
                               callee=self.transform_expr(e.callee),
                               args=[self.transform_expr(a) for a in e.args])
            new.atype = e.atype
            return new
        callee = self.parent.fn_by_name(e.callee.name)
        summary = self.tast.summaries[callee.name]
        args: List[ast.Expr] = []
        bindings: Dict[str, str] = {}
        callee_circuit = self.parent.circuits.get(self.parent.circuit_name(callee.name))
        for param, arg in zip(callee.params, e.args):
            ptype = self.parent.param_atype(callee, param)
            if ptype.is_public:
                args.append(self.transform_expr(arg))
                continue
            # private argument: pass a verified ciphertext
            if isinstance(arg, (ast.Ident, ast.IndexExpr)) and arg.atype.is_private:
                args.append(ast.CipherVarRead(span=arg.span, target=arg))
                if callee_circuit is not None and param.name in callee_circuit.vars \
                        and callee_circuit.vars[param.name].role == ROLE_PARAM:
                    bindings[param.name] = self.to_cexpr(arg).name
            else:
                # materialize a caller-side temporary with its own enc proof
                tmp_name = f"{ZK_PREFIX}{self.fresh('arg')}"
                lv = ast.Ident(span=arg.span, name=tmp_name)
                lv.atype = ptype
                value = self.to_cexpr(arg)
                tmp_var = self.decl_temp(value, comment=f"arg {param.name}")
                cipher_expr = self.store_private(lv, CVar(tmp_var.name, value.ctype),
                                                 ptype.label)
                ann = _ann_type_node(ptype)
                self.flush_marker()
                self.pending.append(ast.VarDeclStmt(span=arg.span, name=tmp_name,
                                                    ann_type=ann, init=cipher_expr))
                args.append(ast.CipherVarRead(
                    span=arg.span, target=_typed_ident(tmp_name, ptype, arg.span)))
                if callee_circuit is not None and param.name in callee_circuit.vars \
                        and callee_circuit.vars[param.name].role == ROLE_PARAM:
                    bindings[param.name] = tmp_var.name
        if not summary.requires_verification:
            new = ast.CallExpr(span=e.span, callee=e.callee, args=args)
            new.atype = e.atype
            return new
        # call requiring verification: section offsets are patched once the
        # caller's own slot counts are final
        instance = len(self.call_sites)
        call = ast.TransformedCall(span=e.span, fn=self.parent.internal_name(callee.name),
                                   args=args, in_offset=-1, out_offset=-1,
                                   callee_instance=instance)
        call.atype = e.atype
        call.callee_bindings = bindings
        self.call_sites.append((self.parent.circuit_name(callee.name), call))
        self.circuit.stmts.append(CCall(self.parent.circuit_name(callee.name),
                                        bindings, instance))
        return call

    def finalize_offsets(self):
        """Patch call-site section offsets now that own slot counts are final."""
        in_cursor = self.circuit.own_in_slots
        out_cursor = self.circuit.own_out_slots
        for circuit_name, call in self.call_sites:
            meta = self.parent.meta_by_circuit[circuit_name]
            call.in_offset = in_cursor
            call.out_offset = out_cursor
            in_cursor += meta.section_in
            out_cursor += meta.section_out
        self.section_in = in_cursor
        self.section_out = out_cursor


def cond_as_typed(onchain: ast.Expr, original: ast.Expr) -> ast.Expr:
    onchain.atype = original.atype
    return onchain


def _typed_ident(name: str, atype: AnnotatedType, span) -> ast.Ident:
    ident = ast.Ident(span=span, name=name)
    ident.atype = atype
    return ident


def _ann_type_node(atype: AnnotatedType) -> ast.AnnotatedTypeName:
    base = ast.TypeName(name=str(atype.dtype))
    base.resolved = atype.dtype
    label = None
    if atype.is_private:
        label = ast.LabelName(name=str(atype.label))
    return ast.AnnotatedTypeName(base=base, label=label)


# --- contract-level transformation -------------------------------------------------


class ContractTransformer:
    def __init__(self, tast: TypedAst, backend: CryptoBackend):
        self.tast = tast
        self.backend = backend
        self.contract = tast.contract
        self.circuits: Dict[str, AbstractCircuit] = {}
        self.fn_meta: Dict[str, FnMeta] = {}
        self.meta_by_circuit: Dict[str, FnMeta] = {}
        self.entries: Dict[str, EntryInfo] = {}
        self.new_functions: List[ast.FunctionDef] = []
        self.new_constructor: Optional[ast.FunctionDef] = None

    def fn_by_name(self, name: str) -> ast.FunctionDef:
        if name == "constructor":
            return self.contract.constructor
        return self.contract.function(name)

    def circuit_name(self, fn_name: str) -> str:
        return f"{self.contract.name}_{fn_name}"

    def will_wrap(self, fn_name: str) -> bool:
        fn = self.fn_by_name(fn_name)
        summary = self.tast.summaries[fn_name]
        return (fn.visibility in ("public", "external")
                and summary.requires_verification_external)

    def internal_name(self, fn_name: str) -> str:
        return f"{fn_name}_inner" if self.will_wrap(fn_name) else fn_name

    def param_atype(self, fn: ast.FunctionDef, param: ast.Param) -> AnnotatedType:
        dtype = param.ann_type.base.resolved
        label = LABEL_ALL
        if param.ann_type.label is not None and param.ann_type.label.name != "all":
            label = LABEL_ME if param.ann_type.label.name == "me" \
                else label_ident(param.ann_type.label.name)
        return AnnotatedType(dtype, label)

    def run(self) -> TransformedContract:
        self._hoist_state_inits()
        order = self._topo_order()
        transformers: Dict[str, FunctionTransformer] = {}
        for name in order:
            fn = self.fn_by_name(name)
            summary = self.tast.summaries[name]
            if not summary.requires_verification and not summary.has_private_args:
                body = self._transform_plain(fn)
                new_fn = _mk_fn(fn, fn.name, body)
                self._register_plain(fn, new_fn)
                continue
            ft = FunctionTransformer(self, fn, self.circuit_name(name))
            self._bind_params(ft, fn)
            body = ft.transform_body()
            ft.finalize_offsets()
            transformers[name] = ft
            self.circuits[ft.circuit.name] = ft.circuit
            needs_sections = ft.circuit.has_content() or bool(ft.call_sites)
            inner_name = self.internal_name(name)
            internal = _mk_fn(fn, inner_name, body)
            meta = FnMeta(name=inner_name, original=name, kind="internal",
                          circuit=ft.circuit.name if needs_sections else None,
                          needs_sections=needs_sections,
                          section_in=ft.section_in, section_out=ft.section_out,
                          param_private=[self.param_atype(fn, p).is_private
                                         for p in fn.params])
            self.fn_meta[inner_name] = meta
            if inner_name != name:
                self.fn_meta[name] = meta  # replaced by the wrapper meta later
            self.meta_by_circuit[ft.circuit.name] = meta
            # the internal copy of a split constructor is a plain function
            internal.is_constructor = False if inner_name != name else fn.is_constructor
            self._add_fn(internal, internal.is_constructor)
        # external wrappers for public entry points requiring verification
        for name in order:
            fn = self.fn_by_name(name)
            summary = self.tast.summaries[name]
            if fn.visibility not in ("public", "external"):
                continue
            if not summary.requires_verification_external:
                continue
            self._build_wrapper(fn, transformers.get(name))
        new_contract = ast.ContractDef(
            span=self.contract.span, name=self.contract.name,
            enums=self.contract.enums, state_vars=self.contract.state_vars,
            constructor=self.new_constructor, functions=self.new_functions)
        return TransformedContract(
            name=self.contract.name, contract=new_contract, circuits=self.circuits,
            fn_meta=self.fn_meta, entries=self.entries, tast=self.tast,
            backend_name=self.backend.name)

    # -- pieces --

    def _hoist_state_inits(self):
        """State variable initializers run at the start of the constructor."""
        inits = []
        for sv in self.contract.state_vars:
            if sv.init is not None:
                lhs = ast.Ident(span=sv.span, name=sv.name)
                lhs.atype = self.tast.state[sv.name].atype
                rhs = sv.init
                if lhs.atype.is_private and rhs.atype is not None \
                        and rhs.atype.is_public:
                    rhs = ast.ReclassifyExpr(span=rhs.span, expr=rhs,
                                             target=lhs.atype.label)
                    rhs.atype = AnnotatedType(sv.init.atype.dtype, lhs.atype.label)
                inits.append(ast.AssignStmt(span=sv.span, lhs=lhs, op="=", rhs=rhs))
                if lhs.atype.is_private:
                    self._constructor_needs_verification = True
                sv.init = None
        if not inits:
            return
        if self.contract.constructor is None:
            from .analysis import FunctionSummary
            self.contract.constructor = ast.FunctionDef(
                name="constructor", params=[], visibility="public",
                body=ast.Block(stmts=[]), is_constructor=True)
            self.tast.summaries.setdefault("constructor",
                                           FunctionSummary("constructor"))
        self.contract.constructor.body.stmts = inits + self.contract.constructor.body.stmts
        if getattr(self, "_constructor_needs_verification", False):
            s = self.tast.summaries["constructor"]
            s.private_compute = True
            s.requires_verification = True
            s.requires_verification_external = True

    def _topo_order(self) -> List[str]:
        """Callee-before-caller order over functions requiring verification."""
        names = [f.name for f in self.contract.functions]
        if self.contract.constructor is not None:
            names.append("constructor")
        seen: Dict[str, int] = {}
        order: List[str] = []

        def visit(n: str):
            if seen.get(n):
                return
            seen[n] = 1
            for callee in sorted(self.tast.summaries[n].callees):
                visit(callee)
            order.append(n)

        for n in names:
            visit(n)
        return order

    def _transform_plain(self, fn: ast.FunctionDef) -> ast.Block:
        """Functions without circuit content still need call-site rewriting
        (their callees may require sections)."""
        ft = FunctionTransformer(self, fn, self.circuit_name(fn.name) + "_shim")
        body = ft.transform_block(fn.body)
        ft.finalize_offsets()
        if ft.circuit.has_content() or ft.circuit.own_in_slots or ft.call_sites:
            # content appeared after all: promote to a sectioned function
            raise TransformError(
                f"function '{fn.name}' unexpectedly produced circuit content")
        return body

    def _register_plain(self, fn: ast.FunctionDef, new_fn: ast.FunctionDef):
        meta = FnMeta(name=fn.name, original=fn.name, kind="plain",
                      param_private=[self.param_atype(fn, p).is_private
                                     for p in fn.params])
        self.fn_meta[fn.name] = meta
        self._add_fn(new_fn, fn.is_constructor)

    def _add_fn(self, fn: ast.FunctionDef, is_constructor: bool):
        if is_constructor:
            self.new_constructor = fn
        else:
            self.new_functions.append(fn)

    def _bind_params(self, ft: FunctionTransformer, fn: ast.FunctionDef):
        """Private parameters become bound circuit wires when the body reads
        them inside private expressions."""
        summary = self.tast.summaries[fn.name if not fn.is_constructor else "constructor"]
        for p in fn.params:
            atype = self.param_atype(fn, p)
            if not atype.is_private:
                continue
            if self._param_read_privately(fn, p.name):
                ft.circuit.add_var(CircuitVar(p.name, ROLE_PARAM,
                                              ctype_of(atype.dtype)))

    @staticmethod
    def _param_read_privately(fn: ast.FunctionDef, pname: str) -> bool:
        for node in ast.walk(fn.body):
            if isinstance(node, (ast.BinOp, ast.UnOp, ast.CastExpr, ast.RevealExpr,
                                 ast.CallExpr, ast.IfStmt)):
                children = list(node.children())
                for c in children:
                    for sub in ast.walk(c):
                        if isinstance(sub, ast.Ident) and sub.name == pname:
                            return True
        return False

    def _build_wrapper(self, fn: ast.FunctionDef, ft: Optional[FunctionTransformer]):
        name = "constructor" if fn.is_constructor else fn.name
        inner_name = self.internal_name(name)
        inner_meta = self.fn_meta[inner_name]
        inner_meta.wrapper = name
        root_name = self.circuit_name(name) + "_ext"
        root = AbstractCircuit(name=root_name)
        # collect global key labels over the whole inlined tree
        tree_labels = self._collect_tree_labels(inner_meta.circuit)
        has_private_args = any(self.param_atype(fn, p).is_private for p in fn.params)
        needs_sk = self._collect_needs_sk(inner_meta.circuit) or \
            (self.backend.hybrid and has_private_args)
        if self.backend.hybrid and has_private_args and "me" not in tree_labels:
            tree_labels = ["me"] + tree_labels
        for p in fn.params:
            atype = self.param_atype(fn, p)
            if atype.is_private:
                label = "me" if atype.label.is_me else atype.label.name
                if label not in tree_labels:
                    tree_labels.append(label)
        required = [l for l in (["me"] + sorted(set(tree_labels) - {"me"}))
                    if l in tree_labels]
        self._validate_labels(fn, required)
        key_slot: Dict[str, int] = {}
        for label in required:
            var = CircuitVar(f"key_{label}", ROLE_KEY, FIELD_T,
                             slot_offset=root.own_in_slots, label=label)
            root.add_var(var)
            key_slot[label] = root.own_in_slots
            root.own_in_slots += 1
        if needs_sk:
            root.add_var(CircuitVar("sk_me", ROLE_PRIV, None))
            root.needs_sk = True
        root.key_labels = required
        # argument ciphertexts with enc-mode verification
        bindings: Dict[str, str] = {}
        arg_slots: Dict[str, int] = {}
        wrapper_stmts: List[ast.Stmt] = []
        inner_circuit = self.circuits.get(inner_meta.circuit) if inner_meta.circuit else None
        for p in fn.params:
            atype = self.param_atype(fn, p)
            if not atype.is_private:
                continue
            cipher = CircuitVar(f"arg_{p.name}_cipher", ROLE_PUB_IN, None,
                                self.backend.cipher_slots,
                                slot_offset=root.own_in_slots)
            root.add_var(cipher)
            arg_slots[p.name] = root.own_in_slots
            root.own_in_slots += self.backend.cipher_slots
            plain = root.add_var(CircuitVar(f"arg_{p.name}_plain", ROLE_PRIV,
                                            ctype_of(atype.dtype)))
            rnd = root.add_var(CircuitVar(f"arg_{p.name}_rnd", ROLE_PRIV, None))
            label = "me" if atype.label.is_me else atype.label.name
            if label not in root.key_labels:
                raise TransformError(
                    f"public key for '@{label}' is not fetchable in the "
                    f"external wrapper of '{name}'")
            root.stmts.append(CEnc(plain=plain.name, key=KeyRef("global", label),
                                   rnd=rnd.name, cipher=cipher.name, mode="enc",
                                   user_provided=True,
                                   comment=f"argument {p.name}"))
            if inner_circuit is not None and p.name in inner_circuit.vars and \
                    inner_circuit.vars[p.name].role == ROLE_PARAM:
                bindings[p.name] = plain.name
        if inner_meta.circuit is not None and inner_meta.needs_sections:
            root.stmts.append(CCall(inner_meta.circuit, bindings, 0))
        self.circuits[root_name] = root
        root.validate()
        layout = layout_io(self.circuits, root_name)
        # wrapper body: allocate, fetch keys, store args, call inner, verify
        wrapper_stmts.append(ast.OutLenCheckStmt(total=layout.out_total))
        wrapper_stmts.append(ast.AllocInStmt(total=layout.in_total))
        for label in required:
            addr = self._label_address_expr(label, fn)
            wrapper_stmts.append(ast.ZkSlotAssign(
                array="in", slot=key_slot[label],
                value=ast.PkiGetExpr(addr=addr)))
        for p in fn.params:
            if p.name in arg_slots:
                atype = self.param_atype(fn, p)
                wrapper_stmts.append(ast.ZkSlotAssign(
                    array="in", slot=arg_slots[p.name],
                    value=ast.CipherVarRead(target=_typed_ident(p.name, atype, p.span)),
                    count=self.backend.cipher_slots))
        call_args: List[ast.Expr] = []
        for p in fn.params:
            atype = self.param_atype(fn, p)
            ident = _typed_ident(p.name, atype, p.span)
            call_args.append(ast.CipherVarRead(target=ident)
                             if atype.is_private else ident)
        inner_call = ast.TransformedCall(
            fn=inner_name, args=call_args, in_offset=root.own_in_slots,
            out_offset=0, callee_instance=0)
        inner_call.callee_bindings = bindings
        # run the internal function (it fills the in array), verify once,
        # then hand back any return value
        if fn.returns:
            if len(fn.returns) == 1:
                wrapper_stmts.append(ast.VarDeclStmt(
                    name="zk_ret", ann_type=fn.returns[0], init=inner_call))
                ret_expr: ast.Expr = ast.Ident(name="zk_ret")
            else:
                names = [f"zk_ret{i}" for i in range(len(fn.returns))]
                wrapper_stmts.append(ast.TupleVarDeclStmt(
                    names=names, ann_types=list(fn.returns), init=inner_call))
                ret_expr = ast.TupleExpr(items=[ast.Ident(name=n) for n in names])
            wrapper_stmts.append(ast.VerifyStmt(circuit=root_name))
            wrapper_stmts.append(ast.ReturnStmt(value=ret_expr))
        else:
            wrapper_stmts.append(ast.ExprStmt(expr=inner_call))
            wrapper_stmts.append(ast.VerifyStmt(circuit=root_name))
        wrapper = ast.FunctionDef(
            span=fn.span, name=name, params=fn.params, visibility=fn.visibility,
            mutability=fn.mutability, returns=fn.returns,
            body=ast.Block(stmts=wrapper_stmts), is_constructor=fn.is_constructor)
        meta = FnMeta(name=name, original=name, kind="wrapper",
                      circuit=root_name, inner=inner_name,
                      param_private=[self.param_atype(fn, p).is_private
                                     for p in fn.params])
        self.fn_meta[name] = meta
        self.meta_by_circuit[root_name] = meta
        self._add_fn(wrapper, fn.is_constructor)
        self.entries[name] = EntryInfo(
            fn=name, root_circuit=root_name, layout=layout,
            required_keys=required, key_slot=key_slot,
            in_total=layout.in_total, out_total=layout.out_total)

    def _collect_tree_labels(self, circuit_name: Optional[str]) -> List[str]:
        if circuit_name is None:
            return []
        labels: List[str] = []

        def visit(name: str):
            c = self.circuits[name]
            for l in c.key_labels:
                if l not in labels:
                    labels.append(l)
            for callee, _ in c.callees():
                visit(callee)

        visit(circuit_name)
        return labels

    def _collect_needs_sk(self, circuit_name: Optional[str]) -> bool:
        if circuit_name is None:
            return False
        found = [False]

        def visit(name: str):
            c = self.circuits[name]
            if c.needs_sk:
                found[0] = True
            for callee, _ in c.callees():
                visit(callee)

        visit(circuit_name)
        return found[0]

    def _validate_labels(self, fn: ast.FunctionDef, labels: List[str]):
        params = {p.name for p in fn.params}
        for label in labels:
            if label == "me" or label in params:
                continue
            info = self.tast.state.get(label)
            if info is not None and info.is_final:
                continue
            raise TransformError(
                f"owner '@{label}' used by a transitively called function is "
                f"not resolvable in the external wrapper of '{fn.name}'")

    def _label_address_expr(self, label: str, fn: ast.FunctionDef) -> ast.Expr:
        if label == "me":
            return ast.MeExpr()
        return ast.Ident(name=label)


def _mk_fn(original: ast.FunctionDef, name: str, body: ast.Block) -> ast.FunctionDef:
    return ast.FunctionDef(span=original.span, name=name, params=original.params,
                           visibility=original.visibility,
                           mutability=original.mutability,
                           returns=original.returns, body=body,
                           is_constructor=original.is_constructor)


def transform_contract(tast: TypedAst, backend: CryptoBackend) -> TransformedContract:
    """All five checks must have passed; produces the on-chain contract,
    abstract circuits, section layouts and per-entry key requirements."""
    return ContractTransformer(tast, backend).run()


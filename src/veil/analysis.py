"""Static analyses: alias analysis, evaluation-order check, privacy type
check, circuit compatibility check and loop check.

All five run over the parsed AST and either produce a TypedAst (every
expression annotated, per-function summaries computed) or a list of
diagnostics in deterministic source order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from . import ast
from .lang import (ADDRESS, ADDRESS_PAYABLE, ARITH_OPS, BIT_OPS, BOOL, BOOL_OPS,
                   CMP_OPS, EQ_OPS, LABEL_ALL, LABEL_ME, SHIFT_OPS, AddressType,
                   AnnotatedType, BoolType, DataType, EnumType, IntType,
                   MappingType, NumberLiteralType, PrivacyLabel, TupleType,
                   common_int_type, explicitly_convertible,
                   implicitly_convertible, is_primitive, label_ident,
                   literal_fits)
from .lexer import int_bits
from .source import DiagnosticSink, SourceFile, Span


# --- symbol information -------------------------------------------------------


@dataclass
class StateVarInfo:
    name: str
    atype: AnnotatedType
    is_final: bool
    decl: ast.StateVarDecl


@dataclass
class FunctionSummary:
    name: str
    state_reads: Set[str] = field(default_factory=set)
    state_writes: Set[str] = field(default_factory=set)
    callees: Set[str] = field(default_factory=set)
    has_private_args: bool = False
    private_compute: bool = False  # circuit content beyond argument ciphers
    requires_verification: bool = False  # when called internally
    requires_verification_external: bool = False
    reads_env: bool = False  # msg/block/tx access


@dataclass
class TypedAst:
    source: SourceFile
    contract: ast.ContractDef
    state: Dict[str, StateVarInfo]
    enums: Dict[str, EnumType]
    summaries: Dict[str, FunctionSummary]
    alias: "AliasFacts"
    diagnostics: List = field(default_factory=list)

    def all_functions(self) -> List[ast.FunctionDef]:
        fns = list(self.contract.functions)
        if self.contract.constructor:
            fns.append(self.contract.constructor)
        return fns


# --- alias analysis -----------------------------------------------------------


@dataclass
class AliasFacts:
    """For every statement, the set of identifiers proven equal to the caller
    address at statement entry.  Facts are a sound under-approximation."""

    stmt_facts: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    fn_entry: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def at(self, stmt: ast.Stmt) -> FrozenSet[str]:
        return self.stmt_facts.get(id(stmt), frozenset())


def is_me_expr(e: ast.Expr) -> bool:
    if isinstance(e, ast.MeExpr):
        return True
    return (isinstance(e, ast.MemberExpr) and e.member == "sender"
            and isinstance(e.base, ast.Ident) and e.base.name == "msg")


class AliasAnalyzer:
    """Forward dataflow over each function body.

    Kill rules: reassignment kills a variable's fact; a call kills facts for
    non-final state variables (calls cannot touch locals).  Joins intersect,
    which keeps `final` address variables since nothing can kill them.
    """

    def __init__(self, contract: ast.ContractDef, state: Dict[str, StateVarInfo]):
        self.contract = contract
        self.state = state
        self.facts = AliasFacts()

    def run(self) -> AliasFacts:
        fns = list(self.contract.functions)
        if self.contract.constructor:
            fns.append(self.contract.constructor)
        for fn in fns:
            name = "constructor" if fn.is_constructor else fn.name
            self.facts.fn_entry[name] = frozenset()
            self.block(fn.body, frozenset())
        return self.facts

    def block(self, blk: ast.Block, facts: FrozenSet[str]) -> FrozenSet[str]:
        for stmt in blk.stmts:
            facts = self.stmt(stmt, facts)
        return facts

    def stmt(self, s: ast.Stmt, facts: FrozenSet[str]) -> FrozenSet[str]:
        self.facts.stmt_facts[id(s)] = facts
        if isinstance(s, ast.Block):
            return self.block(s, facts)
        if isinstance(s, ast.VarDeclStmt):
            facts = self.apply_calls(s.init, facts)
            return self.assign_fact(facts, s.name, s.init)
        if isinstance(s, ast.AssignStmt):
            facts = self.apply_calls(s.rhs, facts)
            if isinstance(s.lhs, ast.Ident):
                if s.op == "=":
                    return self.assign_fact(facts, s.lhs.name, s.rhs)
                return facts - {s.lhs.name}
            return facts
        if isinstance(s, ast.ExprStmt):
            facts = self.apply_calls(s.expr, facts)
            if isinstance(s.expr, ast.UnOp) and s.expr.op in ("++", "--"):
                if isinstance(s.expr.operand, ast.Ident):
                    return facts - {s.expr.operand.name}
            return facts
        if isinstance(s, ast.RequireStmt):
            facts = self.apply_calls(s.cond, facts)
            return facts | self.condition_facts(s.cond)
        if isinstance(s, ast.IfStmt):
            facts = self.apply_calls(s.cond, facts)
            then_in = facts | self.condition_facts(s.cond)
            then_out = self.block(s.then_branch, then_in)
            else_out = self.block(s.else_branch, facts) if s.else_branch else facts
            return then_out & else_out
        if isinstance(s, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
            return self.loop(s, facts)
        if isinstance(s, ast.ReturnStmt):
            return self.apply_calls(s.value, facts) if s.value else facts
        if isinstance(s, ast.TupleVarDeclStmt):
            facts = self.apply_calls(s.init, facts)
            return facts - set(s.names)
        return facts

    def loop(self, s: ast.Stmt, facts: FrozenSet[str]) -> FrozenSet[str]:
        # iterate to fixpoint; facts at loop entry only shrink
        entry = facts
        while True:
            out = entry
            if isinstance(s, ast.ForStmt):
                if s.init:
                    out = self.stmt(s.init, out)
                body_in = out | (self.condition_facts(s.cond) if s.cond else frozenset())
                body_out = self.block(s.body, body_in)
                if s.update:
                    body_out = self.stmt(s.update, body_out)
            elif isinstance(s, ast.WhileStmt):
                body_out = self.block(s.body, out | self.condition_facts(s.cond))
            else:  # do-while
                body_out = self.block(s.body, out)
            new_entry = entry & body_out
            if new_entry == entry:
                return entry
            entry = new_entry

    def assign_fact(self, facts, name: str, rhs: Optional[ast.Expr]):
        facts = facts - {name}
        if rhs is not None and (is_me_expr(rhs) or
                                (isinstance(rhs, ast.Ident) and rhs.name in facts)):
            facts = facts | {name}
        return facts

    def condition_facts(self, cond: ast.Expr) -> FrozenSet[str]:
        """Identifiers proven == me when `cond` holds (top-level && conjuncts)."""
        out: Set[str] = set()
        stack = [cond]
        while stack:
            e = stack.pop()
            if isinstance(e, ast.BinOp) and e.op == "&&":
                stack.extend([e.left, e.right])
            elif isinstance(e, ast.BinOp) and e.op == "==":
                for a, b in ((e.left, e.right), (e.right, e.left)):
                    if is_me_expr(a) and isinstance(b, ast.Ident):
                        out.add(b.name)
        return frozenset(out)

    def apply_calls(self, e: Optional[ast.Expr], facts: FrozenSet[str]) -> FrozenSet[str]:
        """Calls may reassign non-final state variables."""
        if e is None:
            return facts
        for node in ast.walk(e):
            if isinstance(node, ast.CallExpr) and isinstance(node.callee, ast.Ident):
                if node.callee.name in {f.name for f in self.contract.functions}:
                    facts = frozenset(
                        n for n in facts
                        if n not in self.state or self.state[n].is_final)
        return facts


def alias_analysis(contract: ast.ContractDef, state: Dict[str, StateVarInfo]) -> AliasFacts:
    return AliasAnalyzer(contract, state).run()


# --- evaluation-order check ----------------------------------------------------


def check_eval_order(contract: ast.ContractDef, sink: DiagnosticSink):
    """Reject expressions relying on subexpression evaluation order: two
    subexpressions writing the same variable, or one writing what another
    reads.  Mapping accesses conflict at the level of the mapping name."""
    fn_effects = _call_effects(contract)

    def effects(e: ast.Expr) -> Tuple[Set[str], Set[str]]:
        reads: Set[str] = set()
        writes: Set[str] = set()
        for node in ast.walk(e):
            if isinstance(node, ast.Ident):
                reads.add(node.name)
            elif isinstance(node, ast.UnOp) and node.op in ("++", "--"):
                if isinstance(node.operand, ast.Ident):
                    writes.add(node.operand.name)
                elif isinstance(node.operand, ast.IndexExpr):
                    writes |= _base_name(node.operand)
            elif isinstance(node, ast.CallExpr) and isinstance(node.callee, ast.Ident):
                r, w = fn_effects.get(node.callee.name, (set(), set()))
                reads |= r
                writes |= w
        return reads, writes

    def conflict(parts: List[ast.Expr], span: Span):
        sets = [effects(p) for p in parts]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                r1, w1 = sets[i]
                r2, w2 = sets[j]
                clash = (w1 & (r2 | w2)) | (w2 & r1)
                if clash:
                    name = sorted(clash)[0]
                    sink.error("E-order", span,
                               f"'{name}' is written and accessed in two "
                               "subexpressions with unspecified evaluation order")
                    return

    def scan_expr(e: ast.Expr):
        for node in ast.walk(e):
            if isinstance(node, ast.CallExpr):
                conflict(list(node.args), node.span)
            elif isinstance(node, ast.BinOp) and node.op not in ("&&", "||"):
                conflict([node.left, node.right], node.span)
            elif isinstance(node, ast.IndexExpr):
                conflict([node.base, node.index], node.span)
            elif isinstance(node, ast.TupleExpr):
                conflict(node.items, node.span)

    def scan_stmt(s: ast.Stmt):
        if isinstance(s, ast.AssignStmt):
            scan_expr(s.rhs)
            scan_expr(s.lhs)
            # index computation of the target vs the right-hand side
            index_parts = [n.index for n in ast.walk(s.lhs) if isinstance(n, ast.IndexExpr)]
            conflict(index_parts + [s.rhs], s.span)
        else:
            for c in s.children():
                if isinstance(c, ast.Expr):
                    scan_expr(c)
                elif isinstance(c, ast.Stmt):
                    scan_stmt(c)

    for fn in list(contract.functions) + ([contract.constructor] if contract.constructor else []):
        scan_stmt(fn.body)


def _base_name(e: ast.IndexExpr) -> Set[str]:
    base = e.base
    while isinstance(base, ast.IndexExpr):
        base = base.base
    return {base.name} if isinstance(base, ast.Ident) else set()


def _call_effects(contract: ast.ContractDef) -> Dict[str, Tuple[Set[str], Set[str]]]:
    """Transitive (reads, writes) of state variables per function."""
    state_names = {sv.name for sv in contract.state_vars}
    fns = {f.name: f for f in contract.functions}
    direct: Dict[str, Tuple[Set[str], Set[str], Set[str]]] = {}
    for name, fn in fns.items():
        reads, writes, calls = set(), set(), set()
        for node in ast.walk(fn.body):
            if isinstance(node, ast.Ident) and node.name in state_names:
                reads.add(node.name)
            if isinstance(node, ast.AssignStmt):
                tgt = node.lhs
                while isinstance(tgt, ast.IndexExpr):
                    tgt = tgt.base
                if isinstance(tgt, ast.Ident) and tgt.name in state_names:
                    writes.add(tgt.name)
            if isinstance(node, ast.UnOp) and node.op in ("++", "--"):
                tgt = node.operand
                while isinstance(tgt, ast.IndexExpr):
                    tgt = tgt.base
                if isinstance(tgt, ast.Ident) and tgt.name in state_names:
                    writes.add(tgt.name)
            if isinstance(node, ast.CallExpr) and isinstance(node.callee, ast.Ident):
                if node.callee.name in fns:
                    calls.add(node.callee.name)
        direct[name] = (reads, writes, calls)
    # fixpoint over the (possibly cyclic) call graph
    changed = True
    while changed:
        changed = False
        for name, (reads, writes, calls) in direct.items():
            for callee in list(calls):
                cr, cw, cc = direct[callee]
                if not (cr <= reads and cw <= writes and cc <= calls):
                    reads |= cr
                    writes |= cw
                    calls |= cc
                    changed = True
    return {n: (r, w) for n, (r, w, _) in direct.items()}


# --- privacy type check ---------------------------------------------------------


MAGIC_MEMBERS = {
    ("msg", "sender"): AnnotatedType(ADDRESS),
    ("msg", "value"): AnnotatedType(IntType(256, False)),
    ("block", "number"): AnnotatedType(IntType(256, False)),
    ("block", "timestamp"): AnnotatedType(IntType(256, False)),
    ("tx", "origin"): AnnotatedType(ADDRESS),
}
MAGIC_BASES = ("msg", "block", "tx")


@dataclass
class Scope:
    vars: Dict[str, AnnotatedType] = field(default_factory=dict)
    parent: Optional["Scope"] = None

    def lookup(self, name: str) -> Optional[AnnotatedType]:
        s = self
        while s is not None:
            if name in s.vars:
                return s.vars[name]
            s = s.parent
        return None

    def declare(self, name: str, atype: AnnotatedType) -> bool:
        if name in self.vars:
            return False
        self.vars[name] = atype
        return True

    def child(self) -> "Scope":
        return Scope(parent=self)


class PrivacyChecker:
    """Fills every expression's annotated type, inserts implicit
    classifications of public values, and enforces the label lattice:
    public flows anywhere, owned values flow only to the same owner, and any
    owner change requires an explicit reveal."""

    def __init__(self, source: SourceFile, contract: ast.ContractDef,
                 aliases: AliasFacts, sink: DiagnosticSink):
        self.source = source
        self.contract = contract
        self.aliases = aliases
        self.sink = sink
        self.enums: Dict[str, EnumType] = {}
        self.state: Dict[str, StateVarInfo] = {}
        self.fns: Dict[str, ast.FunctionDef] = {f.name: f for f in contract.functions}
        self.summaries: Dict[str, FunctionSummary] = {}
        self.fn: Optional[ast.FunctionDef] = None
        self.summary: Optional[FunctionSummary] = None
        self.scope: Optional[Scope] = None
        self.facts: FrozenSet[str] = frozenset()
        self.in_private_if = False

    # -- entry ---------------------------------------------------------------

    def check(self) -> TypedAst:
        for enum in self.contract.enums:
            if enum.name in self.enums:
                self.err(enum.span, f"duplicate enum '{enum.name}'")
            if len(set(enum.members)) != len(enum.members):
                self.err(enum.span, f"duplicate member in enum '{enum.name}'")
            self.enums[enum.name] = EnumType(enum.name, tuple(enum.members))
        for sv in self.contract.state_vars:
            atype = self.resolve_annotated(sv.ann_type, allow_mapping=True, fn=None)
            self.check_name(sv.name, sv.span)
            if sv.name in self.state:
                self.err(sv.span, f"duplicate state variable '{sv.name}'")
            self.state[sv.name] = StateVarInfo(sv.name, atype, sv.is_final, sv)
            if sv.is_final and atype.dtype != ADDRESS:
                self.err(sv.span, "'final' is only supported on address state variables")
            if sv.init is not None and atype.is_private and not isinstance(sv.init, ast.IntLit):
                self.err(sv.span, "private state variables may only be initialized "
                                  "with literals at declaration")
        for fn in self.all_fns():
            self.summaries[self.fn_key(fn)] = FunctionSummary(name=self.fn_key(fn))
        for sv in self.contract.state_vars:
            if sv.init is not None:
                self.fn = None
                self.scope = Scope()
                self.facts = frozenset()
                self.type_expr(sv.init)
        for fn in self.all_fns():
            self.check_function(fn)
        self.finalize_verification_flags()
        return TypedAst(self.source, self.contract, self.state, self.enums,
                        self.summaries, self.aliases, self.sink.items)

    def all_fns(self) -> List[ast.FunctionDef]:
        fns = list(self.contract.functions)
        if self.contract.constructor:
            fns.append(self.contract.constructor)
        return fns

    @staticmethod
    def fn_key(fn: ast.FunctionDef) -> str:
        return "constructor" if fn.is_constructor else fn.name

    def err(self, span: Span, msg: str, code: str = "E-type"):
        self.sink.error(code, span, msg)

    def check_name(self, name: str, span: Span):
        if name.startswith("zk_"):
            self.err(span, f"identifiers starting with 'zk_' are reserved "
                           f"({name!r})")

    # -- type resolution -------------------------------------------------------

    def resolve_base(self, node, fn: Optional[ast.FunctionDef]) -> DataType:
        if isinstance(node, ast.MappingTypeName):
            key = self.resolve_base(node.key, fn)
            if isinstance(key, MappingType) or not is_primitive(key):
                self.err(node.key.span, "mapping keys must be primitive types")
                key = ADDRESS
            if node.tag is not None and not isinstance(key, AddressType):
                self.err(node.tag_span or node.span,
                         "mapping tags are only allowed on address keys")
            value = self.resolve_annotated(node.value, allow_mapping=True, fn=fn,
                                           mapping_tag=node.tag)
            dtype = MappingType(key, node.tag, value)
            node.resolved = dtype
            return dtype
        name = node.name
        if name == "bool":
            node.resolved = BOOL
        elif name == "address":
            node.resolved = ADDRESS
        elif name == "address payable":
            node.resolved = ADDRESS_PAYABLE
        elif int_bits(name) is not None:
            bits, signed = int_bits(name)
            node.resolved = IntType(bits, signed)
        elif name in self.enums:
            node.resolved = self.enums[name]
        else:
            self.err(node.span, f"unknown type '{name}'")
            node.resolved = IntType(256, False)
        return node.resolved

    def resolve_annotated(self, node: ast.AnnotatedTypeName, allow_mapping: bool,
                          fn: Optional[ast.FunctionDef],
                          mapping_tag: Optional[str] = None) -> AnnotatedType:
        dtype = self.resolve_base(node.base, fn)
        label = LABEL_ALL
        if node.label is not None:
            label = self.resolve_label(node.label, fn, mapping_tag)
            if not is_primitive(dtype):
                self.err(node.span, "privacy labels are only allowed on primitive types")
                label = LABEL_ALL
        if isinstance(dtype, MappingType) and not allow_mapping:
            self.err(node.span, "mapping types are only allowed for state variables")
        return AnnotatedType(dtype, label)

    def resolve_label(self, node: ast.LabelName, fn: Optional[ast.FunctionDef],
                      mapping_tag: Optional[str] = None) -> PrivacyLabel:
        if node.name == "all":
            return LABEL_ALL
        if node.name == "me":
            return LABEL_ME
        if mapping_tag is not None and node.name == mapping_tag:
            return label_ident(node.name)
        if fn is not None:
            for p in fn.params:
                if p.name == node.name:
                    ptype = p.ann_type.base.resolved
                    if not isinstance(ptype, AddressType):
                        self.err(node.span, f"privacy label '{node.name}' must name an "
                                            "address parameter")
                    return label_ident(node.name)
        sv = self.state.get(node.name)
        if sv is not None:
            if not (sv.is_final and isinstance(sv.atype.dtype, AddressType)):
                self.err(node.span, f"privacy label '{node.name}' must name a final "
                                    "address state variable")
            return label_ident(node.name)
        self.err(node.span, f"unknown privacy label '{node.name}'")
        return LABEL_ALL

    # -- label machinery ---------------------------------------------------------

    def readable(self, label: PrivacyLabel) -> bool:
        """True if the current caller can decrypt values owned by `label`."""
        if label.is_me:
            return True
        return label.kind == "ident" and label.name in self.facts

    def labels_equal(self, a: PrivacyLabel, b: PrivacyLabel) -> bool:
        if a == b:
            return True
        pair = {a.kind, b.kind}
        if pair == {"me", "ident"}:
            ident = a if a.kind == "ident" else b
            return ident.name in self.facts
        return False

    def coerce_label(self, expr: ast.Expr, target: PrivacyLabel,
                     what: str) -> ast.Expr:
        """Make `expr` flow into a location owned by `target`, inserting an
        implicit classification for public values."""
        src = expr.atype.label
        if src.is_public and target.is_public:
            return expr
        if src.is_public:
            wrapped = ast.ReclassifyExpr(span=expr.span, expr=expr, target=target)
            wrapped.atype = AnnotatedType(expr.atype.dtype, target)
            self.note_private_compute()
            return wrapped
        if self.labels_equal(src, target):
            return expr
        if target.is_public:
            self.err(expr.span, f"{what} would leak a value owned by "
                                f"'@{src}'; use reveal(..., all)", code="E-leak")
        else:
            self.err(expr.span, f"{what} changes the owner from '@{src}' to "
                                f"'@{target}'; use an explicit reveal", code="E-leak")
        return expr

    def note_private_compute(self):
        if self.summary is not None:
            self.summary.private_compute = True

    # -- function checking ----------------------------------------------------------

    def check_function(self, fn: ast.FunctionDef):
        self.fn = fn
        key = self.fn_key(fn)
        self.summary = self.summaries[key]
        self.scope = Scope()
        self.facts = self.aliases.fn_entry.get(key, frozenset())
        for p in fn.params:  # base types first so labels can refer to any parameter
            self.resolve_base(p.ann_type.base, fn)
        for p in fn.params:
            atype = self.resolve_annotated(p.ann_type, allow_mapping=False, fn=fn)
            self.check_name(p.name, p.span)
            if not self.scope.declare(p.name, atype):
                self.err(p.span, f"duplicate parameter '{p.name}'")
            if atype.is_private:
                self.summary.has_private_args = True
        for r in fn.returns:
            self.resolve_annotated(r, allow_mapping=False, fn=fn)
        if not fn.is_constructor:
            self.check_name(fn.name, fn.span)
        if fn.is_constructor and fn.visibility != "public":
            self.err(fn.span, "constructors are public")
        self.check_block(fn.body)
        self.fn = None
        self.summary = None

    def check_block(self, blk: ast.Block):
        self.scope = self.scope.child()
        for s in blk.stmts:
            self.check_stmt(s)
        self.scope = self.scope.parent

    def check_stmt(self, s: ast.Stmt):
        self.facts = self.aliases.stmt_facts.get(id(s), self.facts)
        if isinstance(s, ast.Block):
            self.check_block(s)
        elif isinstance(s, ast.VarDeclStmt):
            atype = self.resolve_annotated(s.ann_type, allow_mapping=False, fn=self.fn)
            self.check_name(s.name, s.span)
            if s.init is not None:
                self.type_expr(s.init)
                s.init = self.conform(s.init, atype, "initialization")
            if not self.scope.declare(s.name, atype):
                self.err(s.span, f"redeclaration of '{s.name}'")
        elif isinstance(s, ast.TupleVarDeclStmt):
            atypes = [self.resolve_annotated(t, allow_mapping=False, fn=self.fn)
                      for t in s.ann_types]
            self.type_expr(s.init)
            it = s.init.atype.dtype
            if not isinstance(it, TupleType) or len(it.elements) != len(atypes):
                self.err(s.span, "initializer is not a tuple of matching arity")
            else:
                for i, (have, want) in enumerate(zip(it.elements, atypes)):
                    if not implicitly_convertible(have.dtype, want.dtype):
                        self.err(s.span, f"tuple component {i} has type {have}, "
                                         f"expected {want}")
                    elif not have.label.is_public and not self.labels_equal(have.label, want.label):
                        self.err(s.span, f"tuple component {i} would change owner")
            for name, atype in zip(s.names, atypes):
                if not self.scope.declare(name, atype):
                    self.err(s.span, f"redeclaration of '{name}'")
        elif isinstance(s, ast.AssignStmt):
            self.check_assign(s)
        elif isinstance(s, ast.ExprStmt):
            if isinstance(s.expr, ast.UnOp) and s.expr.op in ("++", "--"):
                self.check_incdec(s.expr)
            else:
                self.type_expr(s.expr, statement_position=True)
        elif isinstance(s, ast.RequireStmt):
            self.type_expr(s.cond)
            self.expect_bool(s.cond, "require condition")
            if s.cond.atype and s.cond.atype.is_private:
                self.err(s.cond.span, "require conditions must be public; "
                                      "reveal the value first")
        elif isinstance(s, ast.IfStmt):
            self.type_expr(s.cond)
            self.expect_bool(s.cond, "if condition")
            if s.cond.atype and s.cond.atype.is_private:
                self.note_private_compute()
                self.check_private_if(s)
            else:
                self.check_block(s.then_branch)
                if s.else_branch:
                    self.check_block(s.else_branch)
        elif isinstance(s, ast.WhileStmt):
            self.type_expr(s.cond)
            self.expect_bool(s.cond, "loop condition")
            self.check_block(s.body)
        elif isinstance(s, ast.DoWhileStmt):
            self.check_block(s.body)
            self.type_expr(s.cond)
            self.expect_bool(s.cond, "loop condition")
        elif isinstance(s, ast.ForStmt):
            self.scope = self.scope.child()
            if s.init:
                self.check_stmt(s.init)
            if s.cond:
                self.type_expr(s.cond)
                self.expect_bool(s.cond, "loop condition")
            if s.update:
                self.check_stmt(s.update)
            self.check_block(s.body)
            self.scope = self.scope.parent
        elif isinstance(s, ast.ReturnStmt):
            self.check_return(s)

    def check_assign(self, s: ast.AssignStmt):
        lhs_type = self.type_lvalue(s.lhs)
        self.type_expr(s.rhs)
        if lhs_type is None:
            return
        if isinstance(s.lhs, ast.TupleExpr):
            if s.op != "=":
                self.err(s.span, "compound assignment is not defined on tuples")
            it = s.rhs.atype.dtype
            want = lhs_type.dtype
            if not isinstance(it, TupleType) or len(it.elements) != len(want.elements):
                self.err(s.span, "tuple assignment arity mismatch")
            return
        if s.op != "=":
            # a op= b behaves like a = a op b
            virtual = ast.BinOp(span=s.span, op=s.op[:-1], left=s.lhs, right=s.rhs)
            self.type_binop(virtual)
            s.rhs = self.conform(s.rhs, lhs_type, "assignment",
                                 dtype_override=virtual.atype.dtype if virtual.atype else None)
            if lhs_type.is_private:
                self.note_private_compute()
        else:
            s.rhs = self.conform(s.rhs, lhs_type, "assignment")

    def type_lvalue(self, e: ast.Expr) -> Optional[AnnotatedType]:
        if isinstance(e, ast.TupleExpr):
            parts = [self.type_lvalue(i) for i in e.items]
            if any(p is None for p in parts):
                return None
            e.atype = AnnotatedType(TupleType(tuple(parts)))
            return e.atype
        if isinstance(e, ast.Ident):
            atype = self.scope.lookup(e.name)
            if atype is None and e.name in self.state:
                info = self.state[e.name]
                if info.is_final and not (self.fn and self.fn.is_constructor):
                    self.err(e.span, f"final state variable '{e.name}' can only be "
                                     "assigned in the constructor")
                self.summary and self.summary.state_writes.add(e.name)
                atype = info.atype
            if atype is None:
                self.err(e.span, f"unknown variable '{e.name}'")
                return None
            if isinstance(atype.dtype, MappingType):
                self.err(e.span, "whole mappings cannot be assigned")
                return None
            e.atype = atype
            return atype
        if isinstance(e, ast.IndexExpr):
            atype = self.type_index(e)
            e.atype = atype
            base = e.base
            while isinstance(base, ast.IndexExpr):
                base = base.base
            if isinstance(base, ast.Ident) and base.name in self.state:
                self.summary and self.summary.state_writes.add(base.name)
            return atype
        self.err(e.span, "expression is not assignable")
        return None

    def check_incdec(self, e: ast.UnOp):
        target_type = self.type_lvalue(e.operand)
        if target_type is None:
            return
        if not isinstance(target_type.dtype, IntType):
            self.err(e.span, f"'{e.op}' requires an integer operand")
        if target_type.is_private:
            self.note_private_compute()
        e.atype = target_type

    def check_return(self, s: ast.ReturnStmt):
        declared = self.fn.returns
        if s.value is None:
            if declared:
                self.err(s.span, "function must return a value")
            return
        self.type_expr(s.value)
        if not declared:
            self.err(s.span, "function has no return values")
            return
        if len(declared) == 1:
            want = self.resolve_annotated(declared[0], allow_mapping=False, fn=self.fn)
            s.value = self.conform(s.value, want, "return")
        else:
            if not isinstance(s.value, ast.TupleExpr) or len(s.value.items) != len(declared):
                self.err(s.span, f"expected a tuple of {len(declared)} return values")
                return
            for i, decl in enumerate(declared):
                want = self.resolve_annotated(decl, allow_mapping=False, fn=self.fn)
                s.value.items[i] = self.conform(s.value.items[i], want, "return")

    # -- private-if restrictions ---------------------------------------------------

    def check_private_if(self, s: ast.IfStmt):
        was = self.in_private_if
        self.in_private_if = True
        self.check_block(s.then_branch)
        self.validate_private_branch(s.then_branch)
        if s.else_branch:
            self.check_block(s.else_branch)
            self.validate_private_branch(s.else_branch)
        self.in_private_if = was

    def validate_private_branch(self, blk: ast.Block):
        """Branches under a private condition may only assign to primitive
        values owned by the caller; the visible trace must not depend on the
        condition."""
        for st in blk.stmts:
            if isinstance(st, ast.Block):
                self.validate_private_branch(st)
            elif isinstance(st, ast.AssignStmt):
                atype = st.lhs.atype
                if atype is None:
                    continue
                if atype.is_public or not self.readable(atype.label):
                    self.err(st.span, "branches of a private condition may only "
                                      "assign to values owned by the caller")
            elif isinstance(st, ast.VarDeclStmt):
                atype = self.scope_type_of(st)
                if atype is not None and atype.is_public:
                    self.err(st.span, "branches of a private condition may only "
                                      "declare caller-owned private variables")
            elif isinstance(st, ast.IfStmt):
                self.validate_private_branch(st.then_branch)
                if st.else_branch:
                    self.validate_private_branch(st.else_branch)
            elif isinstance(st, ast.ExprStmt) and isinstance(st.expr, ast.UnOp) \
                    and st.expr.op in ("++", "--"):
                atype = st.expr.atype
                if atype is not None and atype.is_public:
                    self.err(st.span, "branches of a private condition may only "
                                      "assign to values owned by the caller")
            else:
                self.err(st.span, "statement not supported under a private condition")

    def scope_type_of(self, st: ast.VarDeclStmt) -> Optional[AnnotatedType]:
        return self.scope.lookup(st.name) if self.scope else None

    # -- expressions ------------------------------------------------------------------

    def expect_bool(self, e: ast.Expr, what: str):
        if e.atype is not None and not isinstance(e.atype.dtype, BoolType):
            self.err(e.span, f"{what} must be boolean, found {e.atype}")

    def conform(self, expr: ast.Expr, want: AnnotatedType, what: str,
                dtype_override: Optional[DataType] = None) -> ast.Expr:
        """Check data-type convertibility and make the label flow."""
        if expr.atype is None:
            return expr
        have_dtype = dtype_override or expr.atype.dtype
        if isinstance(have_dtype, NumberLiteralType) and isinstance(want.dtype, IntType):
            if not literal_fits(have_dtype.value, want.dtype):
                self.err(expr.span, f"literal {have_dtype.value} does not fit "
                                    f"{want.dtype}", code="E-width")
        elif not implicitly_convertible(have_dtype, want.dtype):
            self.err(expr.span, f"cannot implicitly convert {have_dtype} "
                                f"to {want.dtype}")
        return self.coerce_label(expr, want.label, what)

    def type_expr(self, e: ast.Expr, statement_position: bool = False) -> AnnotatedType:
        if isinstance(e, ast.IntLit):
            e.atype = AnnotatedType(NumberLiteralType(e.value))
        elif isinstance(e, ast.BoolLit):
            e.atype = AnnotatedType(BOOL)
        elif isinstance(e, ast.MeExpr):
            e.atype = AnnotatedType(ADDRESS)
        elif isinstance(e, ast.Ident):
            e.atype = self.type_ident(e)
        elif isinstance(e, ast.MemberExpr):
            e.atype = self.type_member(e)
        elif isinstance(e, ast.IndexExpr):
            e.atype = self.type_index(e)
        elif isinstance(e, ast.BinOp):
            self.type_binop(e)
        elif isinstance(e, ast.UnOp):
            self.type_unop(e, statement_position)
        elif isinstance(e, ast.CallExpr):
            e.atype = self.type_call(e, statement_position)
        elif isinstance(e, ast.CastExpr):
            e.atype = self.type_cast(e)
        elif isinstance(e, ast.RevealExpr):
            e.atype = self.type_reveal(e)
        elif isinstance(e, ast.TupleExpr):
            parts = [self.type_expr(i) for i in e.items]
            e.atype = AnnotatedType(TupleType(tuple(parts)))
        else:
            raise AssertionError(f"untypeable node {e.kind}")
        if e.atype is None:
            e.atype = AnnotatedType(IntType(256, False))
        return e.atype

    def type_ident(self, e: ast.Ident) -> AnnotatedType:
        atype = self.scope.lookup(e.name)
        if atype is not None:
            return atype
        if e.name in self.state:
            if self.summary is not None:
                self.summary.state_reads.add(e.name)
            return self.state[e.name].atype
        if e.name in self.enums:
            self.err(e.span, f"enum '{e.name}' cannot be used as a value")
            return AnnotatedType(self.enums[e.name])
        if e.name in MAGIC_BASES:
            self.err(e.span, f"'{e.name}' cannot be used directly")
        elif e.name in self.fns:
            self.err(e.span, f"function '{e.name}' used as a value")
        else:
            self.err(e.span, f"unknown identifier '{e.name}'")
        return AnnotatedType(IntType(256, False))

    def type_member(self, e: ast.MemberExpr) -> AnnotatedType:
        if isinstance(e.base, ast.Ident):
            if e.base.name in MAGIC_BASES:
                atype = MAGIC_MEMBERS.get((e.base.name, e.member))
                if atype is None:
                    self.err(e.span, f"unknown member '{e.base.name}.{e.member}'")
                    return AnnotatedType(IntType(256, False))
                if self.summary is not None:
                    self.summary.reads_env = True
                return atype
            if e.base.name in self.enums:
                enum = self.enums[e.base.name]
                if e.member not in enum.members:
                    self.err(e.span, f"'{e.member}' is not a member of enum "
                                     f"'{enum.name}'")
                return AnnotatedType(enum)
        base_type = self.type_expr(e.base)
        if isinstance(base_type.dtype, AddressType) and e.member == "balance":
            if base_type.is_private:
                self.err(e.span, "'balance' is only available on public addresses")
            return AnnotatedType(IntType(256, False))
        if isinstance(base_type.dtype, AddressType) and e.member in ("transfer", "send"):
            if base_type.is_private:
                self.err(e.span, f"'{e.member}' is only available on public addresses")
            if not base_type.dtype.payable:
                self.err(e.span, f"'{e.member}' requires an 'address payable'")
            return AnnotatedType(IntType(256, False))  # callable marker
        self.err(e.span, f"unknown member '{e.member}'")
        return AnnotatedType(IntType(256, False))

    def type_index(self, e: ast.IndexExpr) -> Optional[AnnotatedType]:
        base_type = self.type_expr(e.base)
        self.type_expr(e.index)
        if isinstance(e.base, ast.Ident) and e.base.name in self.state \
                and self.summary is not None:
            self.summary.state_reads.add(e.base.name)
        mt = base_type.dtype
        if not isinstance(mt, MappingType):
            self.err(e.span, "only mappings can be indexed")
            return AnnotatedType(IntType(256, False))
        if e.index.atype.is_private:
            self.err(e.index.span, "mapping keys must be public")
        if not implicitly_convertible(e.index.atype.dtype, mt.key):
            self.err(e.index.span, f"mapping key has type {e.index.atype.dtype}, "
                                   f"expected {mt.key}")
        value = mt.value
        if mt.tag is not None and value.label == label_ident(mt.tag):
            # substitute the label bound by the tag with the index expression
            if is_me_expr(e.index) or (isinstance(e.index, ast.Ident)
                                       and e.index.name in self.facts):
                return AnnotatedType(value.dtype, LABEL_ME)
            if isinstance(e.index, ast.Ident):
                return AnnotatedType(value.dtype, label_ident(e.index.name))
            self.err(e.index.span, "the key of a tagged mapping must be 'me' or "
                                   "an address variable")
            return AnnotatedType(value.dtype, LABEL_ME)
        return value

    def type_binop(self, e: ast.BinOp):
        lt = self.type_expr(e.left)
        rt = self.type_expr(e.right)
        op = e.op
        label = self.combine_labels(e, lt, rt)
        if op in BOOL_OPS:
            self.expect_bool(e.left, f"left operand of '{op}'")
            self.expect_bool(e.right, f"right operand of '{op}'")
            e.atype = AnnotatedType(BOOL, label)
            return
        if op in EQ_OPS:
            common = common_int_type(lt.dtype, rt.dtype)
            if common is None:
                self.err(e.span, f"cannot compare {lt.dtype} and {rt.dtype}")
            e.atype = AnnotatedType(BOOL, label)
            return
        if op in CMP_OPS:
            common = self.numeric_common(e, lt, rt)
            e.atype = AnnotatedType(BOOL, label)
            return
        if op in ARITH_OPS or op in BIT_OPS:
            common = self.numeric_common(e, lt, rt)
            e.atype = AnnotatedType(common, label)
            return
        if op in SHIFT_OPS:
            if not isinstance(lt.dtype, (IntType, NumberLiteralType)):
                self.err(e.left.span, "shifts require an integer left operand")
            if not isinstance(rt.dtype, (IntType, NumberLiteralType)):
                self.err(e.right.span, "shift amounts must be integers")
            if rt.is_private:
                self.err(e.right.span, "shift amounts must be public")
            dtype = lt.dtype
            if isinstance(lt.dtype, NumberLiteralType) and \
                    isinstance(rt.dtype, NumberLiteralType):
                value = _fold_literal(op, lt.dtype.value, rt.dtype.value)
                if value is None:
                    self.err(e.span, "invalid constant shift")
                    value = 0
                dtype = NumberLiteralType(value)
            elif isinstance(dtype, NumberLiteralType):
                dtype = IntType(256, False)
            e.atype = AnnotatedType(dtype, label)
            return
        raise AssertionError(f"unhandled operator {op}")

    def numeric_common(self, e: ast.BinOp, lt: AnnotatedType, rt: AnnotatedType) -> DataType:
        if isinstance(lt.dtype, NumberLiteralType) and isinstance(rt.dtype, NumberLiteralType):
            value = _fold_literal(e.op, lt.dtype.value, rt.dtype.value)
            if value is None:
                self.err(e.span, "invalid constant expression")
                return IntType(256, False)
            return NumberLiteralType(value)
        common = common_int_type(lt.dtype, rt.dtype)
        if common is None:
            self.err(e.span, f"no common type for {lt.dtype} and {rt.dtype}",
                     code="E-width")
            return IntType(256, False)
        if isinstance(common, (BoolType, AddressType, EnumType)) and e.op in ARITH_OPS + BIT_OPS:
            self.err(e.span, f"operator '{e.op}' is not defined on {common}")
        return common

    def combine_labels(self, e: ast.BinOp, lt: AnnotatedType, rt: AnnotatedType) -> PrivacyLabel:
        if lt.is_public and rt.is_public:
            return LABEL_ALL
        self.note_private_compute()
        for side, atype in (("left", lt), ("right", rt)):
            if atype.is_private and not self.readable(atype.label):
                self.err(e.span, f"the {side} operand of '{e.op}' is owned by "
                                 f"'@{atype.label}' and cannot be read by the caller",
                         code="E-unreadable")
                return LABEL_ME
        # classify public operands into the private computation
        if lt.is_public:
            e.left = self._classify_into(e.left)
        if rt.is_public:
            e.right = self._classify_into(e.right)
        return LABEL_ME

    def _classify_into(self, expr: ast.Expr) -> ast.Expr:
        wrapped = ast.ReclassifyExpr(span=expr.span, expr=expr, target=LABEL_ME)
        wrapped.atype = AnnotatedType(expr.atype.dtype, LABEL_ME)
        return wrapped

    def type_unop(self, e: ast.UnOp, statement_position: bool = False):
        if e.op in ("++", "--"):
            self.err(e.span, f"'{e.op}' can only be used as a statement or "
                             "loop update")
            self.type_expr(e.operand)
            e.atype = e.operand.atype
            return
        t = self.type_expr(e.operand)
        if e.op == "!":
            self.expect_bool(e.operand, "operand of '!'")
        elif e.op in ("-", "~"):
            if isinstance(t.dtype, NumberLiteralType):
                value = -t.dtype.value if e.op == "-" else ~t.dtype.value
                e.atype = AnnotatedType(NumberLiteralType(value), t.label)
                return
            if not isinstance(t.dtype, IntType):
                self.err(e.span, f"operator '{e.op}' requires an integer operand")
        if t.is_private:
            self.note_private_compute()
            if not self.readable(t.label):
                self.err(e.span, f"operand is owned by '@{t.label}' and cannot "
                                 "be read by the caller", code="E-unreadable")
        e.atype = AnnotatedType(t.dtype, t.label)

    def type_call(self, e: ast.CallExpr, statement_position: bool) -> AnnotatedType:
        if isinstance(e.callee, ast.MemberExpr):
            member = e.callee.member
            self.type_member(e.callee)
            if member in ("transfer", "send"):
                if len(e.args) != 1:
                    self.err(e.span, f"'{member}' takes one argument")
                else:
                    self.type_expr(e.args[0])
                    self.conform(e.args[0], AnnotatedType(IntType(256, False)),
                                 f"'{member}' amount")
                if self.fn and self.fn.mutability in ("pure", "view"):
                    self.err(e.span, f"'{member}' is not allowed in "
                                     f"{self.fn.mutability} functions")
                return AnnotatedType(BOOL) if member == "send" else AnnotatedType(BOOL)
            self.err(e.span, f"'{member}' is not callable")
            return AnnotatedType(IntType(256, False))
        if not isinstance(e.callee, ast.Ident):
            self.err(e.span, "expression is not callable")
            return AnnotatedType(IntType(256, False))
        fn = self.fns.get(e.callee.name)
        if fn is None:
            self.err(e.span, f"unknown function '{e.callee.name}'")
            for a in e.args:
                self.type_expr(a)
            return AnnotatedType(IntType(256, False))
        if self.summary is not None:
            self.summary.callees.add(fn.name)
        if len(e.args) != len(fn.params):
            self.err(e.span, f"'{fn.name}' expects {len(fn.params)} arguments, "
                             f"got {len(e.args)}")
        for i, arg in enumerate(e.args):
            self.type_expr(arg)
            if i < len(fn.params):
                want = self.resolve_annotated(fn.params[i].ann_type,
                                              allow_mapping=False, fn=fn)
                e.args[i] = self.conform(arg, want, f"argument {i + 1}")
        if not fn.returns:
            return AnnotatedType(TupleType(()))
        rtypes = [self.resolve_annotated(r, allow_mapping=False, fn=fn)
                  for r in fn.returns]
        if len(rtypes) == 1:
            return rtypes[0]
        return AnnotatedType(TupleType(tuple(rtypes)))

    def type_cast(self, e: ast.CastExpr) -> AnnotatedType:
        target = self.resolve_base(e.target, self.fn)
        t = self.type_expr(e.operand)
        if isinstance(t.dtype, NumberLiteralType) and isinstance(target, IntType):
            if not literal_fits(t.dtype.value, target):
                self.err(e.span, f"literal {t.dtype.value} does not fit {target}",
                         code="E-width")
        elif not explicitly_convertible(t.dtype, target):
            self.err(e.span, f"cannot convert {t.dtype} to {target}")
        if t.is_private:
            self.note_private_compute()
            if not self.readable(t.label):
                self.err(e.span, "cannot cast a value the caller cannot read",
                         code="E-unreadable")
        return AnnotatedType(target, t.label)

    def type_reveal(self, e: ast.RevealExpr) -> AnnotatedType:
        t = self.type_expr(e.expr)
        target = self.resolve_label(e.target, self.fn)
        if t.is_private and not self.readable(t.label):
            self.err(e.span, f"cannot reveal a value owned by '@{t.label}'",
                     code="E-unreadable")
        self.note_private_compute()
        if not is_primitive(t.dtype) and not isinstance(t.dtype, NumberLiteralType):
            self.err(e.span, "only primitive values can be revealed")
        return AnnotatedType(t.dtype, target)

    # -- verification flags ------------------------------------------------------------

    def finalize_verification_flags(self):
        """requires_verification propagates along the call graph."""
        memo: Dict[str, bool] = {}

        def requires(name: str, seen: frozenset) -> bool:
            if name in memo:
                return memo[name]
            if name in seen:
                return False  # cycles are reported by the compatibility check
            s = self.summaries.get(name)
            if s is None:
                return False
            result = s.private_compute or any(
                requires(c, seen | {name}) for c in sorted(s.callees))
            memo[name] = result
            return result

        for name, s in self.summaries.items():
            s.requires_verification = requires(name, frozenset())
            s.requires_verification_external = (
                s.requires_verification or s.has_private_args)


def _fold_literal(op: str, a: int, b: int) -> Optional[int]:
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return None
            q = abs(a) // abs(b)
            return -q if (a < 0) != (b < 0) else q
        if op == "%":
            if b == 0:
                return None
            q = abs(a) // abs(b)
            q = -q if (a < 0) != (b < 0) else q
            return a - q * b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            return a << b if 0 <= b <= 256 else None
        if op == ">>":
            return a >> b if b >= 0 else None
    except (ValueError, OverflowError):
        return None
    return None


# --- circuit compatibility check -----------------------------------------------------


UNSUPPORTED_PRIVATE_OPS = ("/", "%")


class CircuitCompatChecker:
    """Private expressions must be expressible as proof-circuit statements:
    no division or modulo, no loops or recursion in transitively called
    bodies, called functions pure or view, shift amounts constant, and
    256-bit private values only within the documented limits."""

    def __init__(self, tast: TypedAst, sink: DiagnosticSink):
        self.tast = tast
        self.sink = sink
        self.fns = {f.name: f for f in tast.contract.functions}
        self.warned_256: Set[int] = set()

    def run(self):
        for fn in self.tast.all_functions():
            self.scan_block(fn.body, private_ctx=False)
        self.check_recursion()

    def scan_block(self, blk: ast.Block, private_ctx: bool):
        for s in blk.stmts:
            self.scan_stmt(s, private_ctx)

    def scan_stmt(self, s: ast.Stmt, private_ctx: bool):
        if isinstance(s, ast.Block):
            self.scan_block(s, private_ctx)
            return
        if isinstance(s, ast.IfStmt):
            cond_private = s.cond.atype is not None and s.cond.atype.is_private
            self.scan_expr(s.cond, private_ctx)
            self.scan_block(s.then_branch, private_ctx or cond_private)
            if s.else_branch:
                self.scan_block(s.else_branch, private_ctx or cond_private)
            return
        for c in s.children():
            if isinstance(c, ast.Expr):
                self.scan_expr(c, private_ctx)
            elif isinstance(c, ast.Stmt):
                self.scan_stmt(c, private_ctx)

    def scan_expr(self, e: ast.Expr, in_private: bool = False):
        atype = getattr(e, "atype", None)
        private = atype is not None and atype.is_private
        if isinstance(e, ast.BinOp) and private:
            if e.op in UNSUPPORTED_PRIVATE_OPS:
                self.sink.error("E-circuit", e.span,
                                f"operator '{e.op}' is not supported in "
                                "private expressions")
            self.check_width_rules(e)
            if e.op in SHIFT_OPS and not self.is_constant(e.right):
                self.sink.error("E-circuit", e.right.span,
                                "shift amounts applied to private values "
                                "must be public constants")
        if isinstance(e, ast.UnOp) and private and e.op == "~":
            self.check_width_rules(e)
        if isinstance(e, ast.CallExpr) and isinstance(e.callee, ast.Ident) \
                and e.callee.name in self.fns and in_private:
            # a call nested inside a private expression: pure/view always;
            # private-returning bodies are inlined and must be straight-line
            callee = self.fns[e.callee.name]
            if callee.mutability not in ("pure", "view"):
                self.sink.error("E-circuit", e.span,
                                f"'{callee.name}' is called inside a private "
                                "expression and must be declared pure or view")
            if self.returns_private(callee):
                self.check_inlineable(callee, e.span, set())
        # side effects cannot move into (or around) the circuit evaluation,
        # so anything under a private ancestor requires pure/view callees,
        # including reclassified public subtrees
        child_private = in_private or private
        for c in e.children():
            if isinstance(c, ast.Expr):
                self.scan_expr(c, child_private)

    @staticmethod
    def returns_private(fn: ast.FunctionDef) -> bool:
        return any(r.label is not None and r.label.name != "all" for r in fn.returns)

    def is_constant(self, e: ast.Expr) -> bool:
        if isinstance(e, ast.IntLit):
            return True
        return e.atype is not None and isinstance(e.atype.dtype, NumberLiteralType)

    def private_width(self, atype: AnnotatedType) -> Optional[Tuple[int, bool]]:
        if isinstance(atype.dtype, IntType):
            return atype.dtype.bits, atype.dtype.signed
        return None

    def check_width_rules(self, node: ast.Expr):
        atype = node.atype
        operand_types = []
        if isinstance(node, ast.BinOp):
            operand_types = [node.left.atype, node.right.atype]
        elif isinstance(node, ast.UnOp):
            operand_types = [node.operand.atype]
        widths = [self.private_width(t) for t in [atype] + operand_types if t is not None]
        for wt in widths:
            if wt is None:
                continue
            bits, signed = wt
            if bits == 256:
                if signed:
                    self.sink.error("E-circuit", node.span,
                                    "private signed 256-bit values are not supported")
                    return
                op = getattr(node, "op", "")
                if op in BIT_OPS + SHIFT_OPS or op == "~":
                    self.sink.error("E-circuit", node.span,
                                    f"operator '{op}' is not supported on private "
                                    "256-bit values")
                elif id(node) not in self.warned_256:
                    self.warned_256.add(id(node))
                    self.sink.warning("W256", node.span,
                                      "private 256-bit arithmetic overflows at the "
                                      "field prime and comparisons require values "
                                      "below 2^252")
                return

    def check_inlineable(self, fn: ast.FunctionDef, call_span: Span,
                         seen: Set[str]):
        """A function evaluated inside a private expression is inlined into
        the circuit; its body must be circuit-expressible."""
        if fn.name in seen:
            return
        seen.add(fn.name)
        if fn.mutability not in ("pure", "view"):
            self.sink.error("E-circuit", call_span,
                            f"'{fn.name}' is called inside a private expression "
                            "and must be declared pure or view")
        for node in ast.walk(fn.body):
            if isinstance(node, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
                self.sink.error("E-circuit", call_span,
                                f"'{fn.name}' is used in a private expression but "
                                "contains a loop")
                break
            if isinstance(node, (ast.RequireStmt, ast.IfStmt)):
                self.sink.error("E-circuit", call_span,
                                f"'{fn.name}' is used in a private expression but "
                                "contains control flow")
                break
            if isinstance(node, ast.CallExpr) and isinstance(node.callee, ast.Ident):
                inner = self.fns.get(node.callee.name)
                if inner is not None:
                    if inner.name in seen:
                        self.sink.error("E-circuit", call_span,
                                        f"recursive call chain through '{inner.name}' "
                                        "cannot be inlined into a proof circuit")
                    else:
                        self.check_inlineable(inner, call_span, seen)

    def check_recursion(self):
        """Functions requiring verification must form an acyclic call graph."""
        summaries = self.tast.summaries
        state: Dict[str, int] = {}

        def visit(name: str, path: List[str]):
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                cycle = "->".join(path[path.index(name):] + [name])
                fn = self.fns.get(name)
                span = fn.span if fn else Span(0, 0)
                self.sink.error("E-circuit", span,
                                f"recursion among functions requiring verification: {cycle}")
                return
            state[name] = 1
            for callee in sorted(summaries.get(name, FunctionSummary(name)).callees):
                if summaries.get(callee) and summaries[callee].requires_verification:
                    visit(callee, path + [name])
            state[name] = 2

        for name, s in summaries.items():
            if s.requires_verification:
                visit(name, [])


def check_circuit_compat(tast: TypedAst, sink: DiagnosticSink):
    CircuitCompatChecker(tast, sink).run()


# --- loop check -------------------------------------------------------------------


def check_loops(tast: TypedAst, sink: DiagnosticSink):
    """All loops must be fully public: no private expressions and no calls to
    functions requiring verification in condition, update or body."""

    def has_private(e: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if e is None:
            return None
        for node in ast.walk(e):
            atype = getattr(node, "atype", None)
            if atype is not None and isinstance(atype, AnnotatedType) and atype.is_private:
                return node
        return None

    def verifying_call(n: ast.Node) -> Optional[ast.CallExpr]:
        for node in ast.walk(n):
            if isinstance(node, ast.CallExpr) and isinstance(node.callee, ast.Ident):
                s = tast.summaries.get(node.callee.name)
                if s is not None and s.requires_verification:
                    return node
        return None

    def scan(node: ast.Node):
        for child in node.children():
            scan(child)
        if isinstance(node, (ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
            parts: List[ast.Node] = []
            if isinstance(node, ast.ForStmt):
                parts = [p for p in (node.init, node.cond, node.update, node.body) if p]
            else:
                parts = [node.cond, node.body]
            for part in parts:
                leak = has_private(part) if isinstance(part, ast.Expr) else None
                if leak is None and not isinstance(part, ast.Expr):
                    for sub in ast.walk(part):
                        if isinstance(sub, ast.Expr) and has_private(sub):
                            leak = sub
                            break
                if leak is not None:
                    sink.error("E-loop", leak.span,
                               "loops must be fully public; private expression "
                               "inside a loop")
                    break
                call = verifying_call(part)
                if call is not None:
                    sink.error("E-loop", call.span,
                               f"loops cannot call '{call.callee.name}', which "
                               "requires verification")
                    break

    for fn in tast.all_functions():
        scan(fn.body)


# --- pipeline ----------------------------------------------------------------------


def analyze(source: SourceFile, contract: ast.ContractDef) -> TypedAst:
    """Run all five checks; raises CompileError on errors, returns a TypedAst
    (with any warnings attached) otherwise."""
    sink = DiagnosticSink()
    check_eval_order(contract, sink)  # before desugaring duplicates reads
    ast.desugar_compound(contract)
    # a light pre-pass for state declarations so alias analysis knows finals
    pre = PrivacyChecker(source, contract, AliasFacts(), DiagnosticSink())
    for enum in contract.enums:
        pre.enums[enum.name] = EnumType(enum.name, tuple(enum.members))
    state_pre: Dict[str, StateVarInfo] = {}
    for sv in contract.state_vars:
        atype = pre.resolve_annotated(sv.ann_type, allow_mapping=True, fn=None)
        state_pre[sv.name] = StateVarInfo(sv.name, atype, sv.is_final, sv)

    aliases = alias_analysis(contract, state_pre)
    checker = PrivacyChecker(source, contract, aliases, sink)
    tast = checker.check()
    if not sink.errors:
        check_circuit_compat(tast, sink)
        check_loops(tast, sink)
    tast.diagnostics = sink.items
    sink.raise_if_errors(source)
    return tast

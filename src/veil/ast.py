"""AST node definitions, generic traversal, structural equality and printing.

Nodes carry a source span plus two analysis slots: `atype` (the annotated
type of an expression) and extra per-node attributes documented inline.
Transformed-only nodes used by the on-chain code live at the bottom; they
never appear in parser output.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from typing import Any, Iterator, List, Optional

from .lang import AnnotatedType, DataType, PrivacyLabel
from .source import Span

NO_SPAN = Span(0, 0)


@dataclass
class Node:
    span: Span = dc_field(default=NO_SPAN, repr=False, compare=False)

    def children(self) -> Iterator["Node"]:
        for f in dataclasses.fields(self):
            if f.name in ("span",):
                continue
            v = getattr(self, f.name)
            if isinstance(v, Node):
                yield v
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, Node):
                        yield item

    @property
    def kind(self) -> str:
        return type(self).__name__


def walk(node: Node) -> Iterator[Node]:
    yield node
    for c in node.children():
        yield from walk(c)


def structurally_equal(a: Any, b: Any) -> bool:
    """Deep equality of two trees ignoring spans and analysis slots."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Node):
        for f in dataclasses.fields(a):
            if f.name in ("span", "atype", "annotation_spans", "final_span",
                          "head_span", "tail_span", "tag_span"):
                continue
            if not structurally_equal(getattr(a, f.name), getattr(b, f.name)):
                return False
        return True
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(structurally_equal(x, y) for x, y in zip(a, b))
    return a == b


# --- types as written in source ---------------------------------------------


@dataclass
class TypeName(Node):
    """A parsed (unresolved) type; `resolved` is filled by the checker."""

    # 'bool' | 'uintN' | 'intN' | 'address' | 'address payable' | enum name
    name: str = ""
    resolved: Optional[DataType] = None

    def code(self) -> str:
        return self.name


@dataclass
class MappingTypeName(Node):
    key: TypeName = None
    tag: Optional[str] = None
    value: "AnnotatedTypeName" = None
    tag_span: Optional[Span] = dc_field(default=None, compare=False)
    resolved: Optional[DataType] = None

    def code(self) -> str:
        k = self.key.code() + (f"!{self.tag}" if self.tag else "")
        return f"mapping({k} => {self.value.code()})"


@dataclass
class AnnotatedTypeName(Node):
    base: Node = None  # TypeName | MappingTypeName
    label: Optional["LabelName"] = None
    annotation_spans: List[Span] = dc_field(default_factory=list, compare=False)

    def code(self) -> str:
        if self.label is None:
            return self.base.code()
        return f"{self.base.code()}@{self.label.code()}"


@dataclass
class LabelName(Node):
    name: str = ""  # 'me' | 'all' | identifier

    def code(self) -> str:
        return self.name


# --- expressions -------------------------------------------------------------


@dataclass
class Expr(Node):
    atype: Optional[AnnotatedType] = dc_field(default=None, compare=False, repr=False)


@dataclass
class IntLit(Expr):
    value: int = 0
    text: str = ""

    def code(self) -> str:
        return self.text or str(self.value)


@dataclass
class BoolLit(Expr):
    value: bool = False

    def code(self) -> str:
        return "true" if self.value else "false"


@dataclass
class Ident(Expr):
    name: str = ""

    def code(self) -> str:
        return self.name


@dataclass
class MeExpr(Expr):
    def code(self) -> str:
        return "me"


@dataclass
class BinOp(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None

    def code(self) -> str:
        return f"({self.left.code()} {self.op} {self.right.code()})"


@dataclass
class UnOp(Expr):
    op: str = ""  # '!', '~', '-', '++', '--'
    operand: Expr = None
    prefix: bool = True

    def code(self) -> str:
        if self.op in ("++", "--"):
            return (f"{self.op}{self.operand.code()}" if self.prefix
                    else f"{self.operand.code()}{self.op}")
        return f"{self.op}{self.operand.code()}"


@dataclass
class IndexExpr(Expr):
    base: Expr = None
    index: Expr = None

    def code(self) -> str:
        return f"{self.base.code()}[{self.index.code()}]"


@dataclass
class MemberExpr(Expr):
    base: Expr = None
    member: str = ""

    def code(self) -> str:
        return f"{self.base.code()}.{self.member}"


@dataclass
class CallExpr(Expr):
    callee: Expr = None
    args: List[Expr] = dc_field(default_factory=list)

    def code(self) -> str:
        return f"{self.callee.code()}({', '.join(a.code() for a in self.args)})"


@dataclass
class CastExpr(Expr):
    target: TypeName = None
    operand: Expr = None

    def code(self) -> str:
        return f"{self.target.code()}({self.operand.code()})"


@dataclass
class TupleExpr(Expr):
    items: List[Expr] = dc_field(default_factory=list)

    def code(self) -> str:
        return "(" + ", ".join(i.code() for i in self.items) + ")"


@dataclass
class RevealExpr(Expr):
    """reveal(expr, target) - the only owner-changing construct."""

    expr: Expr = None
    target: LabelName = None
    head_span: Optional[Span] = dc_field(default=None, compare=False)
    tail_span: Optional[Span] = dc_field(default=None, compare=False)

    def code(self) -> str:
        return f"reveal({self.expr.code()}, {self.target.code()})"


@dataclass
class ReclassifyExpr(Expr):
    """Checker-inserted implicit classification of a public value to an owner."""

    expr: Expr = None
    target: Optional[PrivacyLabel] = None

    def code(self) -> str:
        return self.expr.code()


# --- statements ---------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = dc_field(default_factory=list)

    def code(self, indent: str = "") -> str:
        inner = "\n".join(stmt_code(s, indent + "    ") for s in self.stmts)
        return f"{indent}{{\n{inner}\n{indent}}}" if self.stmts else f"{indent}{{ }}"


@dataclass
class VarDeclStmt(Stmt):
    name: str = ""
    ann_type: AnnotatedTypeName = None
    init: Optional[Expr] = None

    def code(self) -> str:
        init = f" = {self.init.code()}" if self.init else ""
        return f"{self.ann_type.code()} {self.name}{init};"


@dataclass
class TupleVarDeclStmt(Stmt):
    names: List[str] = dc_field(default_factory=list)
    ann_types: List[AnnotatedTypeName] = dc_field(default_factory=list)
    init: Expr = None

    def code(self) -> str:
        decls = ", ".join(f"{t.code()} {n}" for t, n in zip(self.ann_types, self.names))
        return f"({decls}) = {self.init.code()};"


@dataclass
class AssignStmt(Stmt):
    lhs: Expr = None
    op: str = "="  # '=', '+=', ...
    rhs: Expr = None

    def code(self) -> str:
        return f"{self.lhs.code()} {self.op} {self.rhs.code()};"


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None

    def code(self) -> str:
        return f"{self.expr.code()};"


@dataclass
class IfStmt(Stmt):
    cond: Expr = None
    then_branch: Block = None
    else_branch: Optional[Block] = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None
    body: Block = None


@dataclass
class DoWhileStmt(Stmt):
    body: Block = None
    cond: Expr = None


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt] = None  # VarDeclStmt | AssignStmt | ExprStmt
    cond: Optional[Expr] = None
    update: Optional[Stmt] = None  # AssignStmt | ExprStmt (no trailing ';')
    body: Block = None


@dataclass
class RequireStmt(Stmt):
    cond: Expr = None

    def code(self) -> str:
        return f"require({self.cond.code()});"


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None

    def code(self) -> str:
        return f"return {self.value.code()};" if self.value else "return;"


# --- declarations --------------------------------------------------------------


@dataclass
class Param(Node):
    name: str = ""
    ann_type: AnnotatedTypeName = None

    def code(self) -> str:
        return f"{self.ann_type.code()} {self.name}"


@dataclass
class EnumDef(Node):
    name: str = ""
    members: List[str] = dc_field(default_factory=list)

    def code(self) -> str:
        return f"enum {self.name} {{ {', '.join(self.members)} }}"


@dataclass
class StateVarDecl(Node):
    name: str = ""
    ann_type: AnnotatedTypeName = None
    is_final: bool = False
    init: Optional[Expr] = None
    final_span: Optional[Span] = dc_field(default=None, compare=False)

    def code(self) -> str:
        final = "final " if self.is_final else ""
        init = f" = {self.init.code()}" if self.init else ""
        return f"{final}{self.ann_type.code()} {self.name}{init};"


@dataclass
class FunctionDef(Node):
    name: str = ""
    params: List[Param] = dc_field(default_factory=list)
    visibility: str = "public"  # public | private | internal | external
    mutability: str = ""  # '' | pure | view | payable
    returns: List[AnnotatedTypeName] = dc_field(default_factory=list)
    body: Block = None
    is_constructor: bool = False

    def header_code(self) -> str:
        params = ", ".join(p.code() for p in self.params)
        head = "constructor" if self.is_constructor else f"function {self.name}"
        parts = [f"{head}({params})"]
        if not self.is_constructor:
            parts.append(self.visibility)
        if self.mutability:
            parts.append(self.mutability)
        if self.returns:
            parts.append(f"returns ({', '.join(r.code() for r in self.returns)})")
        return " ".join(parts)


@dataclass
class ContractDef(Node):
    name: str = ""
    enums: List[EnumDef] = dc_field(default_factory=list)
    state_vars: List[StateVarDecl] = dc_field(default_factory=list)
    constructor: Optional[FunctionDef] = None
    functions: List[FunctionDef] = dc_field(default_factory=list)

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


# --- transformed-only nodes ------------------------------------------------------


@dataclass
class CipherVarRead(Expr):
    """Read of a private location as its on-chain ciphertext (opaque copy)."""

    target: Expr = None

    def code(self) -> str:
        return self.target.code()


@dataclass
class ZkSlotRef(Expr):
    """Read of circuit array slots relative to the section base:
    in[in_idx + slot] / out[out_idx + slot]; count > 1 reads a cipher."""

    array: str = "in"  # 'in' | 'out'
    slot: int = 0
    count: int = 1
    cipher: bool = False  # a ciphertext value spanning `count` slots

    def code(self) -> str:
        idx = f"{self.array}_idx + {self.slot}"
        if self.count > 1 or self.cipher:
            return f"{self.array}[{idx} : {idx} + {self.count}]"
        return f"{self.array}[{idx}]"


@dataclass
class ZkSlotAssign(Stmt):
    array: str = "in"
    slot: int = 0
    value: Expr = None
    count: int = 1

    def code(self) -> str:
        idx = f"{self.array}_idx + {self.slot}"
        if self.count > 1:
            return f"{self.array}[{idx} : {idx} + {self.count}] = {self.value.code()};"
        return f"{self.array}[{idx}] = {self.value.code()};"


@dataclass
class AllocInStmt(Stmt):
    """Wrapper prologue: allocate the shared circuit-input array."""

    total: int = 0

    def code(self) -> str:
        return f"uint[] memory in = new uint[]({self.total});"


@dataclass
class OutLenCheckStmt(Stmt):
    """Wrapper prologue: the user-supplied out array must have the exact
    layout length, otherwise the transaction reverts."""

    total: int = 0

    def code(self) -> str:
        return f"require(out.length == {self.total});"


@dataclass
class VerifyStmt(Stmt):
    """Single verifier invocation of an external function."""

    circuit: str = ""

    def code(self) -> str:
        return f"Verifier_{self.circuit}.check(proof, in, out);"


@dataclass
class PkiGetExpr(Expr):
    addr: Expr = None

    def code(self) -> str:
        return f"PKI.getPk({self.addr.code()})"


@dataclass
class TransformedCall(Expr):
    """Call to a transformed internal function with section offsets relative
    to the caller's base indices."""

    fn: str = ""
    args: List[Expr] = dc_field(default_factory=list)
    in_offset: int = 0
    out_offset: int = 0
    callee_instance: int = 0  # ordinal of this call site among caller's callees

    def code(self) -> str:
        args = [a.code() for a in self.args]
        args += ["in", "out", f"in_idx + {self.in_offset}", f"out_idx + {self.out_offset}"]
        return f"{self.fn}({', '.join(args)})"


@dataclass
class ZkExecMarker(Stmt):
    """Invisible marker: the off-chain simulator executes circuit statements
    [lo, hi) of the current circuit here.  Ignored on-chain and by emitters."""

    lo: int = 0
    hi: int = 0

    def code(self) -> str:
        return ""


def stmt_code(s: Stmt, indent: str = "") -> str:
    """Pretty-print a statement (used by the round-trip test and the emitter)."""
    if isinstance(s, Block):
        return s.code(indent)
    if isinstance(s, IfStmt):
        text = f"{indent}if ({s.cond.code()})\n{s.then_branch.code(indent)}"
        if s.else_branch is not None:
            text += f"\n{indent}else\n{s.else_branch.code(indent)}"
        return text
    if isinstance(s, WhileStmt):
        return f"{indent}while ({s.cond.code()})\n{s.body.code(indent)}"
    if isinstance(s, DoWhileStmt):
        return f"{indent}do\n{s.body.code(indent)}\n{indent}while ({s.cond.code()});"
    if isinstance(s, ForStmt):
        init = s.init.code().rstrip(";") if s.init else ""
        cond = s.cond.code() if s.cond else ""
        update = s.update.code().rstrip(";") if s.update else ""
        return f"{indent}for ({init}; {cond}; {update})\n{s.body.code(indent)}"
    if isinstance(s, ZkExecMarker):
        return f"{indent}// zk"
    return indent + s.code()


def desugar_compound(contract: ContractDef):
    """Rewrite `x op= e` and statement-level `x++ / x--` into plain
    assignments; runs once before analysis."""
    import copy as _copy

    def rewrite_stmt(s: Stmt) -> Stmt:
        if isinstance(s, AssignStmt) and s.op != "=":
            binop = BinOp(span=s.span, op=s.op[:-1], left=_copy.deepcopy(s.lhs),
                          right=s.rhs)
            return AssignStmt(span=s.span, lhs=s.lhs, op="=", rhs=binop)
        if isinstance(s, ExprStmt) and isinstance(s.expr, UnOp) \
                and s.expr.op in ("++", "--"):
            target = s.expr.operand
            one = IntLit(span=s.span, value=1, text="1")
            op = "+" if s.expr.op == "++" else "-"
            binop = BinOp(span=s.span, op=op, left=_copy.deepcopy(target), right=one)
            return AssignStmt(span=s.span, lhs=target, op="=", rhs=binop)
        return s

    def walk_block(b: Block):
        b.stmts = [rewrite_stmt(s) for s in b.stmts]
        for s in b.stmts:
            if isinstance(s, ForStmt):
                if s.init is not None:
                    s.init = rewrite_stmt(s.init)
                if s.update is not None:
                    s.update = rewrite_stmt(s.update)
            for c in s.children():
                if isinstance(c, Block):
                    walk_block(c)

    fns = list(contract.functions) + ([contract.constructor] if contract.constructor else [])
    for fn in fns:
        walk_block(fn.body)


def contract_code(c: ContractDef) -> str:
    """Source-level pretty printer; re-parsing its output must give back a
    structurally identical tree."""
    lines = [f"contract {c.name} {{"]
    for e in c.enums:
        lines.append("    " + e.code())
    for sv in c.state_vars:
        lines.append("    " + sv.code())
    fns = ([c.constructor] if c.constructor else []) + c.functions
    for fn in fns:
        lines.append("    " + fn.header_code())
        lines.append(fn.body.code("    "))
    lines.append("}")
    return "\n".join(lines) + "\n"

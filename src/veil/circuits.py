"""Abstract proof circuits: the framework-agnostic IR between AST
transformation and constraint-system lowering.

A circuit owns named variables (public in/out slots, private inputs, bound
parameters, locals) and an ordered statement list in static single
assignment form: every variable is introduced exactly once, and every
statement except Decl references variables by name only.  Compound
expressions live solely in Decl right-hand sides.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .lang import (AddressType, BoolType, DataType, EnumType, IntType,
                   NumberLiteralType)

FIELD_WIDTH = 256


@dataclass(frozen=True)
class CircType:
    """Emulated type of a circuit value; width 256 means native field
    semantics (overflow at the prime)."""

    width: int
    signed: bool = False

    def __str__(self):
        if self.width == 1:
            return "bool"
        return f"{'i' if self.signed else 'u'}{self.width}"


BOOL_T = CircType(1)
FIELD_T = CircType(FIELD_WIDTH)


def ctype_of(dtype: DataType) -> CircType:
    if isinstance(dtype, BoolType):
        return BOOL_T
    if isinstance(dtype, IntType):
        return CircType(dtype.bits, dtype.signed)
    if isinstance(dtype, AddressType):
        return CircType(160)
    if isinstance(dtype, EnumType):
        return CircType(8)
    if isinstance(dtype, NumberLiteralType):
        return FIELD_T
    raise TypeError(f"no circuit type for {dtype}")


# --- expressions over circuit variables -----------------------------------------


class CExpr:
    ctype: CircType


@dataclass
class CVar(CExpr):
    name: str
    ctype: CircType


@dataclass
class CLit(CExpr):
    value: int
    ctype: CircType


@dataclass
class CBin(CExpr):
    op: str
    left: CExpr
    right: CExpr
    ctype: CircType  # result type
    op_type: CircType  # common operand type the operator runs at


@dataclass
class CUn(CExpr):
    op: str
    operand: CExpr
    ctype: CircType


@dataclass
class CCond(CExpr):
    cond: CExpr
    then_val: CExpr
    else_val: CExpr
    ctype: CircType


@dataclass
class CCast(CExpr):
    operand: CExpr
    ctype: CircType


# --- variables ----------------------------------------------------------------------

ROLE_PUB_IN = "pub_in"      # slot(s) in this circuit's own in-section
ROLE_PUB_OUT = "pub_out"    # slot(s) in this circuit's own out-section
ROLE_PRIV = "priv"          # private witness input
ROLE_PARAM = "param"        # bound by the caller at a CircuitCall
ROLE_KEY = "key"            # global public-key wire owned by the root circuit
ROLE_LOCAL = "local"        # introduced by a Decl


@dataclass
class CircuitVar:
    name: str
    role: str
    ctype: Optional[CircType] = None  # None for multi-slot cipher values
    slots: int = 1
    slot_offset: Optional[int] = None  # within the own in/out section
    label: Optional[str] = None  # owner label for key vars ('me' or ident name)
    comment: str = ""

    @property
    def is_cipher(self) -> bool:
        return self.ctype is None


@dataclass(frozen=True)
class KeyRef:
    """Reference to the public key of an owner: either a globally fetched key
    (hoisted to the external wrapper) or a per-access slot variable."""

    kind: str  # 'global' | 'slot'
    name: str  # label name for global; circuit variable name for slot


# --- statements ------------------------------------------------------------------------


class CStmt:
    pass


@dataclass
class CDecl(CStmt):
    var: str
    expr: CExpr
    comment: str = ""


@dataclass
class CGuardPush(CStmt):
    var: str
    expected: bool


@dataclass
class CGuardPop(CStmt):
    pass


@dataclass
class CEnc(CStmt):
    """cipher == Enc(plain, rnd, key) under the zero-ciphertext rule; in dec
    mode the equation is the inverse encryption of a stored cipher."""

    plain: str
    key: KeyRef
    rnd: str
    cipher: str
    mode: str  # 'enc' | 'dec'
    user_provided: bool = False  # adds the nonzero-ciphertext assertion
    comment: str = ""


@dataclass
class CEq(CStmt):
    lhs: str
    rhs: str
    comment: str = ""


@dataclass
class CCall(CStmt):
    callee: str
    bindings: Dict[str, str]  # callee param var -> caller var
    instance: int  # ordinal among this circuit's call sites


@dataclass
class AbstractCircuit:
    name: str
    vars: Dict[str, CircuitVar] = dc_field(default_factory=dict)
    stmts: List[CStmt] = dc_field(default_factory=list)
    own_in_slots: int = 0
    own_out_slots: int = 0
    key_labels: List[str] = dc_field(default_factory=list)  # referenced global keys
    needs_sk: bool = False

    def add_var(self, var: CircuitVar) -> CircuitVar:
        assert var.name not in self.vars, f"duplicate circuit variable {var.name}"
        self.vars[var.name] = var
        return var

    def callees(self) -> List[Tuple[str, int]]:
        return [(s.callee, s.instance) for s in self.stmts if isinstance(s, CCall)]

    def validate(self):
        """Assert SSA discipline and balanced guards."""
        declared = set(self.vars)
        for s in self.stmts:
            if isinstance(s, CDecl):
                assert s.var in declared, f"unknown decl target {s.var}"
        decls = [s.var for s in self.stmts if isinstance(s, CDecl)]
        assert len(decls) == len(set(decls)), "circuit variable declared twice"
        depth = 0
        for s in self.stmts:
            if isinstance(s, CGuardPush):
                depth += 1
            elif isinstance(s, CGuardPop):
                depth -= 1
                assert depth >= 0, "unbalanced guard pop"
        assert depth == 0, "guard stack not empty at circuit end"

    def has_content(self) -> bool:
        return any(isinstance(s, (CEnc, CEq, CCall)) for s in self.stmts)


# --- io layout -------------------------------------------------------------------------


@dataclass
class Section:
    path: str  # instance path like 'buy_ext/0:buy'
    circuit: str
    in_offset: int = 0
    in_length: int = 0
    out_offset: int = 0
    out_length: int = 0


@dataclass
class SectionLayout:
    sections: List[Section] = dc_field(default_factory=list)
    in_total: int = 0
    out_total: int = 0

    def by_path(self, path: str) -> Section:
        for s in self.sections:
            if s.path == path:
                return s
        raise KeyError(path)


def layout_io(circuits: Dict[str, AbstractCircuit], root: str) -> SectionLayout:
    """Depth-first contiguous section layout: a function instance's own slots
    come first, followed by each callee's section in call order.  Offsets act
    as relocation bases for the callees."""
    layout = SectionLayout()

    def place(name: str, path: str, in_off: int, out_off: int) -> Tuple[int, int]:
        c = circuits[name]
        section = Section(path=path, circuit=name, in_offset=in_off,
                          out_offset=out_off)
        layout.sections.append(section)
        in_cursor = in_off + c.own_in_slots
        out_cursor = out_off + c.own_out_slots
        for callee, instance in c.callees():
            in_cursor, out_cursor = place(callee, f"{path}/{instance}:{callee}",
                                          in_cursor, out_cursor)
        section.in_length = in_cursor - in_off
        section.out_length = out_cursor - out_off
        return in_cursor, out_cursor

    layout.in_total, layout.out_total = place(root, root, 0, 0)
    return layout

"""Data types, privacy labels and annotated types of the contract language."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

VALID_INT_BITS = tuple(range(8, 257, 8))


class DataType:
    """Base class; concrete variants below are compared structurally."""

    def __str__(self):  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class BoolType(DataType):
    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class IntType(DataType):
    bits: int
    signed: bool

    def __post_init__(self):
        assert self.bits in VALID_INT_BITS, f"invalid integer width {self.bits}"

    def __str__(self):
        return f"{'int' if self.signed else 'uint'}{self.bits}"


@dataclass(frozen=True)
class NumberLiteralType(DataType):
    """Type of an integer literal before a concrete width is chosen."""

    value: int

    def __str__(self):
        return f"literal({self.value})"


@dataclass(frozen=True)
class AddressType(DataType):
    payable: bool = False

    def __str__(self):
        return "address payable" if self.payable else "address"


@dataclass(frozen=True)
class EnumType(DataType):
    name: str
    members: Tuple[str, ...]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class MappingType(DataType):
    key: DataType
    tag: Optional[str]  # name binding the key for value-label substitution
    value: "AnnotatedType"

    def __str__(self):
        k = f"{self.key}!{self.tag}" if self.tag else str(self.key)
        return f"mapping({k} => {self.value})"


@dataclass(frozen=True)
class TupleType(DataType):
    elements: Tuple["AnnotatedType", ...]

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


# --- privacy labels ---------------------------------------------------------

ALL = "all"
ME = "me"


@dataclass(frozen=True)
class PrivacyLabel:
    """Owner of a value: 'all' (public), 'me' (the caller) or a declared
    address identifier (final state variable, parameter or mapping tag)."""

    kind: str  # 'all' | 'me' | 'ident'
    name: Optional[str] = None

    def __str__(self):
        return self.name if self.kind == "ident" else self.kind

    @property
    def is_public(self) -> bool:
        return self.kind == ALL

    @property
    def is_me(self) -> bool:
        return self.kind == ME


LABEL_ALL = PrivacyLabel(ALL)
LABEL_ME = PrivacyLabel(ME)


def label_ident(name: str) -> PrivacyLabel:
    return PrivacyLabel("ident", name)


@dataclass(frozen=True)
class AnnotatedType:
    """A data type paired with its privacy label."""

    dtype: DataType
    label: PrivacyLabel = LABEL_ALL

    def __str__(self):
        if self.label.is_public:
            return str(self.dtype)
        return f"{self.dtype}@{self.label}"

    @property
    def is_public(self) -> bool:
        return self.label.is_public

    @property
    def is_private(self) -> bool:
        return not self.label.is_public


UINT256 = IntType(256, False)
UINT8 = IntType(8, False)
BOOL = BoolType()
ADDRESS = AddressType(False)
ADDRESS_PAYABLE = AddressType(True)

PUBLIC_UINT = AnnotatedType(UINT256)
PUBLIC_BOOL = AnnotatedType(BOOL)
PUBLIC_ADDRESS = AnnotatedType(ADDRESS)


def is_primitive(dtype: DataType) -> bool:
    return isinstance(dtype, (BoolType, IntType, AddressType, EnumType))


def implicitly_convertible(src: DataType, dst: DataType) -> bool:
    """Solidity-style implicit conversions: same type, widening of equal
    signedness, number literals that fit, uint160 -> address, and losing
    payability."""
    if src == dst:
        return True
    if isinstance(src, NumberLiteralType):
        if isinstance(dst, IntType):
            return literal_fits(src.value, dst)
        return False
    if isinstance(src, IntType) and isinstance(dst, IntType):
        return src.signed == dst.signed and src.bits <= dst.bits
    if isinstance(src, AddressType) and isinstance(dst, AddressType):
        return src.payable or not dst.payable
    return False


def literal_fits(value: int, dtype: IntType) -> bool:
    if dtype.signed:
        return -(1 << (dtype.bits - 1)) <= value < 1 << (dtype.bits - 1)
    return 0 <= value < 1 << dtype.bits


def common_int_type(a: DataType, b: DataType) -> Optional[DataType]:
    """Common type of two arithmetic operands, or None if incompatible."""
    if isinstance(a, NumberLiteralType) and isinstance(b, NumberLiteralType):
        return NumberLiteralType(0)  # placeholder; callers fold literals first
    if isinstance(a, NumberLiteralType):
        a, b = b, a
    if isinstance(b, NumberLiteralType):
        if isinstance(a, IntType) and literal_fits(b.value, a):
            return a
        return None
    if isinstance(a, IntType) and isinstance(b, IntType) and a.signed == b.signed:
        return a if a.bits >= b.bits else b
    if isinstance(a, EnumType) and a == b:
        return a
    if isinstance(a, AddressType) and isinstance(b, AddressType):
        return ADDRESS if (not a.payable or not b.payable) else ADDRESS_PAYABLE
    if isinstance(a, BoolType) and isinstance(b, BoolType):
        return BOOL
    return None


def explicitly_convertible(src: DataType, dst: DataType) -> bool:
    if implicitly_convertible(src, dst):
        return True
    if isinstance(src, NumberLiteralType):
        return isinstance(dst, (IntType, AddressType, EnumType))
    if isinstance(src, IntType):
        return isinstance(dst, (IntType, AddressType, EnumType))
    if isinstance(src, AddressType):
        return isinstance(dst, (IntType, AddressType)) and (
            not isinstance(dst, IntType) or dst.bits >= 160
        )
    if isinstance(src, EnumType):
        return isinstance(dst, IntType)
    return False


ARITH_OPS = ("+", "-", "*", "/", "%")
BIT_OPS = ("&", "|", "^")
SHIFT_OPS = ("<<", ">>")
CMP_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("==", "!=")
BOOL_OPS = ("&&", "||")
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

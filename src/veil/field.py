"""Prime field configuration shared by circuit lowering, crypto and proving.

Field elements are plain Python ints in [0, p); the Field object carries the
modulus and the width limits derived from it.  All arithmetic kernels work on
raw ints for speed and reduce at operation boundaries.
"""
from __future__ import annotations

from dataclasses import dataclass

# Scalar field of the alt_bn128 pairing curve, the customary SNARK field.
BN254_PRIME = 21888242871839275222246405745257275088548364400416034343698204186575808495617

# Small 65-bit prime for brute-force desk tests (width limits scale down).
T64_PRIME = 2**64 + 13

PRIMES = {
    "bn254": BN254_PRIME,
    "t64": T64_PRIME,
}


@dataclass(frozen=True)
class Field:
    """A prime field F_p identified by name for manifests and key files."""

    name: str
    p: int

    @property
    def bits(self) -> int:
        return self.p.bit_length()

    @property
    def max_width(self) -> int:
        # Largest fully-emulated integer width.  Addition of two w-bit values
        # needs w+1 bits and the limb-split multiply needs the same, so any
        # w <= bits-2 is safe; we round down to a byte multiple and never
        # exceed 248 (31 bytes, one slot).
        return min(248, 8 * ((self.bits - 2) // 8))


def field_by_name(name: str) -> Field:
    try:
        return Field(name, PRIMES[name])
    except KeyError:
        raise KeyError(f"unknown field prime id {name!r}; known: {sorted(PRIMES)}") from None


DEFAULT_FIELD = field_by_name("bn254")

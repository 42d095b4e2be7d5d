"""Transparent proving scheme: a witness-revealing stand-in for a zk-SNARK.

The scheme keeps the standard keygen/prove/verify boundary so a real pairing
based backend can be slotted in later: the prover key is the flattened
constraint system plus layout metadata, the verifier key carries only the
circuit digest, the public slot count and the hashing configuration.  A
proof is the full witness tagged with the circuit digest; it verifies iff
the digests match, the claimed public inputs equal the witness prefix (or
their digest when input hashing is active) and every constraint holds.

Proofs reveal the witness and provide NO zero-knowledge property; they are
sound at desk scale, which is what the toolchain's tests need.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .lowering import LoweredCircuit
from .sha256gadget import hash_public_io

MAGIC_PK = b"VPK\x01"
MAGIC_VK = b"VVK\x01"
MAGIC_PROOF = b"VPF\x01"

SCHEME_NAME = "transparent-v1"


class ProvingError(Exception):
    pass


@dataclass
class VerifierKey:
    digest: bytes
    n_in: int
    n_out: int
    hashing_active: bool
    hash_mode: str
    hash_compressions: int
    field_name: str

    def serialize(self) -> bytes:
        meta = {
            "digest": self.digest.hex(),
            "n_in": self.n_in,
            "n_out": self.n_out,
            "hashing_active": self.hashing_active,
            "hash_mode": self.hash_mode,
            "hash_compressions": self.hash_compressions,
            "field": self.field_name,
            "scheme": SCHEME_NAME,
        }
        return MAGIC_VK + json.dumps(meta, sort_keys=True).encode()

    @classmethod
    def deserialize(cls, data: bytes) -> "VerifierKey":
        if not data.startswith(MAGIC_VK):
            raise ProvingError("not a verifier key (bad magic)")
        meta = json.loads(data[len(MAGIC_VK):])
        if meta.get("scheme") != SCHEME_NAME:
            raise ProvingError(f"unsupported proving scheme {meta.get('scheme')!r}")
        return cls(bytes.fromhex(meta["digest"]), meta["n_in"], meta["n_out"],
                   meta["hashing_active"], meta["hash_mode"],
                   meta["hash_compressions"], meta["field"])


@dataclass
class ProverKey:
    digest: bytes
    cs_bytes: bytes

    def serialize(self) -> bytes:
        return MAGIC_PK + self.digest + self.cs_bytes


@dataclass
class TransparentKeys:
    prover: ProverKey
    verifier: VerifierKey


@dataclass
class TransparentProof:
    digest: bytes
    witness: List[int]

    def serialize(self) -> bytes:
        body = json.dumps([str(w) for w in self.witness]).encode()
        return MAGIC_PROOF + self.digest + body

    @classmethod
    def deserialize(cls, data: bytes) -> "TransparentProof":
        if not data.startswith(MAGIC_PROOF):
            raise ProvingError("not a proof (bad magic)")
        rest = data[len(MAGIC_PROOF):]
        return cls(rest[:32], [int(w) for w in json.loads(rest[32:])])


def keygen(lowered: LoweredCircuit) -> TransparentKeys:
    """Deterministic: the key pair is fully determined by the canonical
    serialization of the constraint system."""
    cs_bytes = lowered.cs.serialize()
    digest = hashlib.sha256(cs_bytes).digest()
    return TransparentKeys(
        prover=ProverKey(digest, cs_bytes),
        verifier=VerifierKey(digest, lowered.in_total, lowered.out_total,
                             lowered.hashing_active, lowered.hash_mode,
                             lowered.hash_compressions, lowered.field.name))


class KeyCache:
    """Disk-backed key cache: a circuit's keys are derived from one
    serialization of its constraint system and count as reused when both key
    files on disk are byte-identical to them; any other file is rewritten."""

    def __init__(self, directory: str):
        self.directory = directory
        self.generated = 0
        self.reused = 0

    def paths(self, circuit: str) -> Tuple[str, str]:
        return (os.path.join(self.directory, f"proving_{circuit}.key"),
                os.path.join(self.directory, f"verifying_{circuit}.key"))

    def get_or_generate(self, circuit: str, lowered: LoweredCircuit) -> TransparentKeys:
        keys = keygen(lowered)
        files = list(zip(self.paths(circuit),
                         (keys.prover.serialize(), keys.verifier.serialize())))
        if all(_read_or_none(path) == data for path, data in files):
            self.reused += 1
            return keys
        os.makedirs(self.directory, exist_ok=True)
        for path, data in files:
            write_atomic(path, data)
        self.generated += 1
        return keys


def write_atomic(path: str, data: bytes):
    """Replace the file at `path` by `data` in one step: readers see the old
    or the new content, never a partial write."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_or_none(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def prove(lowered: LoweredCircuit, keys: TransparentKeys,
          in_values: List[int], out_values: List[int],
          priv_values: Dict[str, object]) -> TransparentProof:
    """Runs the witness generator; the proof exists iff every constraint is
    satisfied, otherwise the first failing constraint is reported with its
    provenance tag."""
    inputs = lowered.witness_inputs(in_values, out_values, priv_values)
    if lowered.hashing_active:
        digest, _ = hash_public_io(in_values + out_values, lowered.field,
                                   lowered.hash_mode)
        inputs[lowered.digest_wire] = digest
    cs = lowered.cs
    witness = cs.generate_witness(inputs)
    cs.plan_check()
    failure = cs.check(witness)
    if failure is not None:
        index, tag = failure
        raise ProvingError(f"unsatisfied constraint {index}: {tag}")
    return TransparentProof(keys.prover.digest, witness)


def verify(vk: VerifierKey, lowered: LoweredCircuit,
           in_values: List[int], out_values: List[int],
           proof: TransparentProof) -> bool:
    """True iff the proof carries the key's digest, its witness is a list of
    exact ints, the claimed public inputs agree with the witness prefix (or
    their digest when hashing is active) and all constraints of `lowered.cs`
    are satisfied.

    The key and the circuit are trusted: nothing here checks that the
    circuit is the one the key was derived from.  The caller binds them --
    `keygen` derives both from one serialization, and the chain checks a
    circuit against its key once, when it registers them."""
    cs = lowered.cs
    if proof.digest != vk.digest:
        return False
    n_claimed = 1 if vk.hashing_active else vk.n_in + vk.n_out
    if cs.n_public != 1 + n_claimed:
        return False
    w = proof.witness
    # exact ints only: the bulk tests of `check` read 1.0 and True as the
    # bit 1, and float arithmetic in its loop is inexact
    if not set(map(type, w)) <= {int} or len(w) != cs.n_vars or w[0] != 1:
        return False
    if len(in_values) != vk.n_in or len(out_values) != vk.n_out:
        return False
    p = cs.field.p
    if vk.hashing_active:
        digest, _ = hash_public_io(in_values + out_values, cs.field, vk.hash_mode)
        claimed = [digest]
    else:
        claimed = [v % p for v in in_values + out_values]
    if [v % p for v in w[1:1 + n_claimed]] != claimed:
        return False
    return cs.check(w) is None

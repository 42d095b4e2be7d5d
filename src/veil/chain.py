"""Mock blockchain: accounts, contract storage, the PKI registry, atomic
transaction execution with a deterministic gas proxy, and the records the
remote-integrity check compares against.

The chain pins deployed code by artifact digest; transactions supply the
locally compiled artifact, which is only executed if its digests match the
deployment record (the moral equivalent of running stored bytecode).

Proofs are verified against code the chain checked itself.  On the first
proof for a verifier address in a chain instance (made by `deploy` or read
by `load`), the sender's verifying key must re-emit the verifier text whose
digest `deploy` recorded, and the SHA-256 of the sender's constraint system
must equal that key's digest.  The chain then registers, in memory, a copy
of the key and the system sealed as `n_vars`, `n_public` and a tuple of its
constraints; the linear combinations must be immutable tuples of ints, as
this package builds them, so copying the outer list is enough.  It also
classifies the sealed constraints, once, for the bulk tests of
`ConstraintSystem.check`.  Every later proof for that address is verified
with the registered key, constraints and classes, whatever the artifact
carries.  A failed check reverts the transaction as `verification` and
registers nothing.  The registry is not part of the chain file or its
digests.

A transaction runs directly on the contract's storage and the accounts; the
evaluator's undo journal reverts it and yields its state diff, so its cost
does not grow with the size of the storage.  The journal is undone as well
when an exception escapes a transaction, so none of its writes stays.
`save` replaces the chain file atomically.
"""
from __future__ import annotations

import copy  # unused; veilbench's tracer patches this name to time storage copies
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field as dc_field, replace
from typing import Any, Dict, List, Optional, Tuple

from .emit import emit_verifier_contract
from .field import Field
from .interpreter import Evaluator, RequireException, TxEnv, VerificationFailed
from .lowering import LoweredCircuit
from .proving import TransparentProof, VerifierKey, verify, write_atomic
from .r1cs import ConstraintSystem

CHAIN_FORMAT = 1

# gas-proxy constants: alpha per public slot after hashing, beta per SHA-256
# compression, gamma per verifier invocation; beta > 2*alpha keeps the proxy
# monotone in the slot count across the hashing threshold
GAS_PER_SLOT = 2000
GAS_PER_COMPRESSION = 4200
GAS_PER_VERIFICATION = 40000

DEFAULT_BALANCE = 10 ** 12
TIMESTAMP_DELTA = 12


def verification_gas(vk: VerifierKey) -> int:
    """Gas proxy charged for one proof verification under `vk`."""
    slots = 1 if vk.hashing_active else vk.n_in + vk.n_out
    return (GAS_PER_SLOT * slots + GAS_PER_COMPRESSION * vk.hash_compressions
            + GAS_PER_VERIFICATION)


class ChainError(Exception):
    pass


@dataclass
class TxReceipt:
    success: bool
    gas_proxy: int = 0
    revert_reason: Optional[str] = None
    state_diff: List[str] = dc_field(default_factory=list)
    return_value: Any = None
    exit_kind: str = "ok"  # ok | require | verification


@dataclass
class ContractRecord:
    kind: str  # 'main' | 'verifier' | 'pki'
    digest: str  # hex content digest (placeholders intact for 'main')
    instance_digest: str = ""  # main text with linked addresses substituted
    storage: Dict[str, Any] = dc_field(default_factory=dict)
    links: Dict[str, Any] = dc_field(default_factory=dict)
    backend: str = ""


def _addr_from(material: bytes) -> int:
    return int.from_bytes(hashlib.sha256(material).digest()[:20], "big")


class MockChain:
    def __init__(self, field: Field, timestamp_delta: int = TIMESTAMP_DELTA):
        self.field = field
        self.timestamp_delta = timestamp_delta
        self.accounts: Dict[int, int] = {}
        self.contracts: Dict[int, ContractRecord] = {}
        self.pki: Dict[str, Dict[int, int]] = {}
        self.block_number = 0
        self.timestamp = 1_600_000_000
        self.nonce = 0
        # verifier address -> the key and sealed circuit its proofs are
        # checked against; filled by the first proof, see ChainEvaluator
        self.verifiers: Dict[int, Tuple[VerifierKey, LoweredCircuit]] = {}

    # -- accounts --

    def create_account(self, seed: str, balance: int = DEFAULT_BALANCE) -> int:
        addr = _addr_from(b"account:" + seed.encode())
        self.accounts.setdefault(addr, balance)
        return addr

    def balance_of(self, addr: int) -> int:
        return self.accounts.get(addr, 0)

    # -- pki --

    def deploy_pki(self, backend: str, pki_text: str) -> int:
        """One PKI contract per crypto backend; returns its address."""
        existing = self.pki_address(backend)
        if existing is not None:
            return existing
        addr = self._fresh_address(b"pki:" + backend.encode())
        digest = hashlib.sha256(pki_text.encode()).hexdigest()
        self.contracts[addr] = ContractRecord(kind="pki", digest=digest,
                                              backend=backend)
        self.pki.setdefault(backend, {})
        return addr

    def pki_address(self, backend: str) -> Optional[int]:
        for addr, rec in self.contracts.items():
            if rec.kind == "pki" and rec.backend == backend:
                return addr
        return None

    def pki_announce(self, backend: str, account: int, pk: int):
        table = self.pki.setdefault(backend, {})
        if account in table:
            raise ChainError("public key already announced for this account")
        table[account] = pk

    def pki_get(self, backend: str, account: int) -> int:
        table = self.pki.get(backend, {})
        if account not in table:
            raise RequireException("no key registered in the PKI")
        return table[account]

    def has_pk(self, backend: str, account: int) -> bool:
        return account in self.pki.get(backend, {})

    # -- deployment --

    def _fresh_address(self, extra: bytes = b"") -> int:
        self.nonce += 1
        return _addr_from(b"contract:" + self.nonce.to_bytes(8, "big") + extra)

    def deploy(self, artifact, sender: int, args: List[Any], value: int,
               out: List[int], proof: Optional[TransparentProof],
               pki_addr: int) -> Tuple[int, TxReceipt]:
        """Record digests and links, then run the constructor transaction;
        a reverting constructor deploys nothing."""
        if pki_addr not in self.contracts or self.contracts[pki_addr].kind != "pki":
            raise ChainError("PKI contract not found at the given address")
        verifier_links: Dict[str, int] = {}
        verifier_records: Dict[int, ContractRecord] = {}
        for circuit, text in sorted(artifact.verifier_texts.items()):
            vaddr = self._fresh_address(b"verifier:" + circuit.encode())
            verifier_records[vaddr] = ContractRecord(
                kind="verifier", digest=hashlib.sha256(text.encode()).hexdigest())
            verifier_links[circuit] = vaddr
        addr = self._fresh_address(b"main")
        record = ContractRecord(
            kind="main", digest=artifact.content_digest().hex(),
            instance_digest=artifact.main_digest(pki_addr, verifier_links).hex(),
            links={"pki": pki_addr,
                   "verifiers": {k: v for k, v in verifier_links.items()}},
            backend=artifact.backend_name)
        snapshot_nonce = self.nonce
        self.contracts.update(verifier_records)
        self.contracts[addr] = record
        receipt = self.transact(addr, "constructor", args, sender, value, out,
                                proof, artifact)
        if not receipt.success:
            for vaddr in verifier_records:
                del self.contracts[vaddr]
                self.verifiers.pop(vaddr, None)
            del self.contracts[addr]
            self.nonce = snapshot_nonce
            return 0, receipt
        return addr, receipt

    # -- transactions --

    def transact(self, address: int, fn: str, args: List[Any], sender: int,
                 value: int, out: List[int], proof: Optional[TransparentProof],
                 artifact) -> TxReceipt:
        record = self.contracts.get(address)
        if record is None or record.kind != "main":
            raise ChainError(f"no contract at {address:#x}")
        if artifact.content_digest().hex() != record.digest:
            raise ChainError("artifact does not match the deployed contract")
        meta = artifact.tc.fn_meta.get(fn)
        fn_def = None
        if fn == "constructor":
            fn_def = artifact.tc.contract.constructor  # may be absent: no-op
        else:
            if meta is None:
                return TxReceipt(False, revert_reason=f"unknown function '{fn}'",
                                 exit_kind="require")
            for f in artifact.tc.contract.functions:
                if f.name == fn:
                    fn_def = f
                    break
            if fn_def is None:
                return TxReceipt(False, revert_reason=f"unknown function '{fn}'",
                                 exit_kind="require")
        self.block_number += 1
        self.timestamp += self.timestamp_delta
        env = TxEnv(sender=sender, value=value, origin=sender,
                    block_number=self.block_number, timestamp=self.timestamp)
        evaluator = ChainEvaluator(artifact, self, address, record, env)
        evaluator.out_array = list(out or [])
        evaluator.proof = proof
        try:
            if value:
                if fn_def is not None and fn_def.mutability != "payable":
                    raise RequireException("function is not payable")
                evaluator.receive_value()
            ret = None
            if fn_def is not None:
                ret = evaluator.call_function(fn, args)
            return TxReceipt(True, gas_proxy=evaluator.gas_proxy,
                             state_diff=evaluator.state_diff(), return_value=ret)
        except VerificationFailed as e:
            receipt = TxReceipt(False, revert_reason=str(e),
                                exit_kind="verification")
        except RequireException as e:
            receipt = TxReceipt(False, revert_reason=e.reason, exit_kind="require")
        except BaseException:
            evaluator.undo()
            raise
        evaluator.undo()
        return receipt

    def storage_of(self, address: int) -> Dict[str, Any]:
        record = self.contracts.get(address)
        if record is None:
            raise ChainError(f"no contract at {address:#x}")
        return record.storage

    # -- persistence --

    def to_json(self) -> dict:
        def enc_storage(value):
            if isinstance(value, tuple):
                return {"$cipher": list(value)}
            if isinstance(value, dict):
                return {str(k): enc_storage(v) for k, v in value.items()}
            return value

        return {
            "format": CHAIN_FORMAT,
            "field": self.field.name,
            "block_number": self.block_number,
            "timestamp": self.timestamp,
            "nonce": self.nonce,
            "accounts": {str(k): v for k, v in self.accounts.items()},
            "pki": {b: {str(a): pk for a, pk in t.items()}
                    for b, t in self.pki.items()},
            "contracts": {
                str(addr): {
                    "kind": r.kind, "digest": r.digest,
                    "instance_digest": r.instance_digest, "backend": r.backend,
                    "links": r.links, "storage": enc_storage(r.storage),
                } for addr, r in self.contracts.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict, field: Field) -> "MockChain":
        if data.get("format") != CHAIN_FORMAT:
            raise ChainError(f"unsupported chain state format {data.get('format')}")
        if data.get("field") != field.name:
            raise ChainError("chain state was created with a different field prime")

        def dec_storage(value):
            if isinstance(value, dict):
                if "$cipher" in value:
                    return tuple(value["$cipher"])
                return {_dec_key(k): dec_storage(v) for k, v in value.items()}
            return value

        chain = cls(field)
        chain.block_number = data["block_number"]
        chain.timestamp = data["timestamp"]
        chain.nonce = data["nonce"]
        chain.accounts = {int(k): v for k, v in data["accounts"].items()}
        chain.pki = {b: {int(a): pk for a, pk in t.items()}
                     for b, t in data["pki"].items()}
        for addr, r in data["contracts"].items():
            rec = ContractRecord(kind=r["kind"], digest=r["digest"],
                                 instance_digest=r.get("instance_digest", ""),
                                 backend=r.get("backend", ""),
                                 links=r.get("links", {}),
                                 storage=dec_storage(r.get("storage", {})))
            if "verifiers" in rec.links:
                rec.links["verifiers"] = {k: int(v) for k, v in
                                          rec.links["verifiers"].items()}
            chain.contracts[int(addr)] = rec
        return chain

    def save(self, path: str):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        write_atomic(path, json.dumps(self.to_json(), sort_keys=True,
                                      separators=(",", ":")).encode())

    @classmethod
    def load(cls, path: str, field: Field) -> "MockChain":
        with open(path) as f:
            return cls.from_json(json.load(f), field)

    def digest(self) -> str:
        """Digest of the full chain state (used by determinism tests)."""
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()

    def state_digest(self) -> str:
        """Digest over accounts, storage and the PKI only; failed
        transactions leave it untouched even though the block advances."""
        data = self.to_json()
        subset = {k: data[k] for k in ("accounts", "contracts", "pki")}
        return hashlib.sha256(
            json.dumps(subset, sort_keys=True).encode()).hexdigest()


def _tuples_of_ints(constraints: tuple) -> bool:
    """True iff every wire index and coefficient is an int and no container
    is mutable, so a sealed tuple of these constraints cannot change and its
    arithmetic is exact.  (A float 1.0 would serialize as a 1 seen before
    it.)  Two passes in C, once per verifier and chain instance: 0.35 s for
    the 1.78M terms of the dh-arx `buy` circuit with Python 3.11 on one
    core of a shared two-core machine."""
    flat = itertools.chain.from_iterable
    try:
        hash(constraints)  # lists, dicts and sets are unhashable
        return set(map(type, flat(flat(flat(constraints))))) <= {int}
    except TypeError:
        return False


def _dec_key(k: str):
    try:
        return int(k)
    except ValueError:
        return k


class ChainEvaluator(Evaluator):
    """On-chain execution: out array and proof come from the transaction;
    ZkExec markers are skipped; the verifier re-runs proof verification."""

    def __init__(self, artifact, chain: MockChain, address: int,
                 record: ContractRecord, env: TxEnv):
        super().__init__(artifact.tc, artifact.backend, artifact.field, env,
                         record.storage, chain.accounts, address)
        self.artifact = artifact
        self.chain = chain
        self.record = record
        self.proof: Optional[TransparentProof] = None
        self.gas_proxy = 0

    def pki_get(self, address: int) -> int:
        return self.chain.pki_get(self.record.backend, address)

    def on_verify(self, circuit: str):
        """Verify the transaction's proof for `circuit` with the key and
        constraints registered for its verifier address, registering them
        from the artifact on the address's first proof."""
        vaddr = self.record.links["verifiers"].get(circuit)
        if vaddr is None or vaddr not in self.chain.contracts or self.proof is None:
            raise VerificationFailed(circuit)
        registered = self.chain.verifiers.get(vaddr)
        if registered is None:
            registered = self._register(circuit, vaddr)
        vk, lowered = registered
        self.gas_proxy += verification_gas(vk)
        p = self.chain.field.p
        if not verify(vk, lowered, [v % p for v in self.in_array],
                      [v % p for v in self.out_array], self.proof):
            raise VerificationFailed(circuit)

    def _register(self, circuit: str, vaddr: int):
        """Check the artifact's key for `circuit` against the verifier text
        recorded at `vaddr` and its constraint system against the key, once;
        then keep a copy of the key and the sealed system with its check
        plan, so no reference to the artifact, its hints or their closures
        stays alive."""
        keys = self.artifact.keys[circuit]
        vk = VerifierKey.deserialize(keys.verifier.serialize())
        text = emit_verifier_contract(circuit, replace(keys, verifier=vk))
        if hashlib.sha256(text.encode()).hexdigest() != \
                self.chain.contracts[vaddr].digest:
            raise VerificationFailed(circuit)
        lowered = self.artifact.lowered[circuit]
        cs = lowered.cs
        constraints = tuple(cs.constraints)
        if not _tuples_of_ints(constraints):
            raise VerificationFailed(circuit)
        sealed = ConstraintSystem(self.chain.field, cs.n_vars, cs.n_public,
                                  constraints, ("",) * len(constraints))
        if hashlib.sha256(sealed.serialize()).digest() != vk.digest:
            raise VerificationFailed(circuit)
        sealed.plan_check()
        registered = self.chain.verifiers[vaddr] = (vk, replace(lowered, cs=sealed))
        return registered

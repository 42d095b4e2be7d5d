"""Off-chain transaction transformation: simulate the transformed contract,
encrypt arguments, build the circuit witness, generate the proof and submit
the transaction to the mock chain; plus deploy/connect and the interactive
shell.

The simulator executes the same transformed statement stream as the chain;
ZkExec markers make it run the matching circuit statements in lockstep so
the collected witness satisfies the lowered constraint system on the first
attempt.  It runs on the chain's live storage and accounts and always
replays its undo journal afterwards, so a simulation leaves the chain
exactly as it found it.  A constructor is simulated on an empty storage.
"""
from __future__ import annotations

import copy  # unused; veilbench's tracer patches this name to time storage copies
import json
import os
import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional, Tuple

from . import ast
from .chain import ChainError, MockChain, TxReceipt
from .circuits import (CBin, CCall, CCast, CCond, CDecl, CEnc, CEq, CExpr,
                       CGuardPop, CGuardPush, CLit, CUn, CVar, FIELD_WIDTH,
                       ROLE_PRIV)
from .compiler import CompiledArtifact
from .crypto import KeyMaterial, zero_cipher
from .interpreter import (Evaluator, Frame, RequireException, TxEnv,
                          type_width, walk_storage)
from .intsem import binop as int_binop, cast as int_cast, unop as int_unop
from .lang import MappingType
from .proving import ProvingError, TransparentProof, prove, write_atomic
from .transform import EntryInfo

EXIT_OK = 0
EXIT_DIAGNOSTIC = 1
EXIT_REQUIRE = 2
EXIT_VERIFICATION = 3
EXIT_INTEGRITY = 4


class IntegrityError(Exception):
    def __init__(self, mismatch: str):
        self.mismatch = mismatch
        super().__init__(f"remote contract integrity check failed: {mismatch}")


@dataclass
class TransformedTx:
    fn: str
    args: List[Any]
    out: List[int]
    proof: Optional[TransparentProof]
    witness_log: Dict[str, Any] = dc_field(default_factory=dict)


# --- account key management ---------------------------------------------------------


def account_keys(data_dir: str, backend, account: int, chain: MockChain,
                 announce: bool = True) -> KeyMaterial:
    """Load or create this account's key pair for the backend; the public key
    is announced to the PKI on first use."""
    key_dir = os.path.join(data_dir, "keys", backend.name)
    os.makedirs(key_dir, exist_ok=True)
    path = os.path.join(key_dir, f"{account:#042x}.json")
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
        keys = KeyMaterial(sk=int(data["sk"]), pk=int(data["pk"]))
    else:
        keys = backend.keygen(f"{backend.name}:{account:#x}".encode())
        write_atomic(path, json.dumps({"sk": str(keys.sk), "pk": str(keys.pk),
                                       "backend": backend.name}).encode())
    if announce and not chain.has_pk(backend.name, account):
        chain.pki_announce(backend.name, account, keys.pk)
    return keys


# --- simulation evaluator -------------------------------------------------------------


class SimEvaluator(Evaluator):
    """Executes the transformed AST off-chain on the given storage and the
    chain's accounts (the caller undoes its writes): private reads decrypt
    immediately, private results are computed, encrypted and placed into the
    out array, and every circuit value is logged for witness generation."""

    def __init__(self, artifact: CompiledArtifact, chain: MockChain,
                 address: Optional[int], storage: Dict[str, Any], env: TxEnv,
                 keys: KeyMaterial, entry: Optional[EntryInfo],
                 rng: random.Random, trace=None):
        super().__init__(artifact.tc, artifact.backend, artifact.field, env,
                         storage, chain.accounts, address)
        self.artifact = artifact
        self.chain = chain
        self.keys = keys
        self.entry = entry
        self.rng = rng
        self.witness: Dict[str, Any] = {}
        self.trace = trace

    def pki_get(self, address: int) -> int:
        return self.chain.pki_get(self.backend.name, address)

    def on_verify(self, circuit: str):
        pass  # the proof is generated after simulation completes

    # -- circuit execution in lockstep --

    def on_marker(self, frame: Frame, lo: int, hi: int):
        assert frame.circuit is not None
        for stmt in frame.circuit.stmts[lo:hi]:
            if isinstance(stmt, CDecl):
                frame.cenv[stmt.var] = self.eval_cexpr(frame, stmt.expr)
                self._log(frame, stmt.var, frame.cenv[stmt.var])
            elif isinstance(stmt, CEnc):
                self.exec_enc(frame, stmt)
            elif isinstance(stmt, CEq):
                value = frame.cenv[stmt.lhs]
                var = frame.circuit.vars[stmt.rhs]
                self.out_array[frame.out_idx + var.slot_offset] = value % self.field.p
                frame.cenv[stmt.rhs] = value
            elif isinstance(stmt, (CGuardPush, CGuardPop, CCall)):
                continue
            else:
                raise RequireException(f"cannot simulate circuit statement {stmt}")
            if self.trace:
                self.trace(f"zk {frame.path or '<root>'} {stmt}")

    def _log(self, frame: Frame, var: str, value):
        role = frame.circuit.vars[var].role if var in frame.circuit.vars else "local"
        if role == ROLE_PRIV:
            self.witness[frame.path + var] = value

    def cvar_value(self, frame: Frame, name: str):
        if name in frame.cenv:
            return frame.cenv[name]
        var = frame.circuit.vars.get(name)
        if var is not None and var.role == "pub_in":
            return self.in_array[frame.in_idx + var.slot_offset]
        if var is not None and var.role == "pub_out":
            return self.out_array[frame.out_idx + var.slot_offset]
        raise RequireException(f"circuit variable '{name}' has no value")

    def exec_enc(self, frame: Frame, stmt: CEnc):
        var = frame.circuit.vars[stmt.cipher]
        if stmt.mode == "dec":
            base = frame.in_idx + var.slot_offset
            cipher = tuple(self.in_array[base: base + var.slots])
            plain, _evidence = self.backend.dec(cipher, self.keys)
            frame.cenv[stmt.plain] = plain
            frame.cenv[stmt.rnd] = 0
            self.witness[frame.path + stmt.plain] = plain
            self.witness[frame.path + stmt.rnd] = 0
        else:
            plain = self.cvar_value(frame, stmt.plain) % self.field.p
            pk = self.resolve_key(frame, stmt.key)
            rnd = self.rng.getrandbits(128)
            cipher = self.backend.enc(plain, pk, self.keys, rnd)
            base = frame.out_idx + var.slot_offset
            for i, slot in enumerate(cipher):
                self.out_array[base + i] = slot
            frame.cenv[stmt.cipher] = cipher
            frame.cenv[stmt.rnd] = cipher[0] if self.backend.hybrid else rnd
            self.witness[frame.path + stmt.rnd] = frame.cenv[stmt.rnd]

    def resolve_key(self, frame: Frame, keyref) -> int:
        if keyref.kind == "global":
            slot = self.entry.key_slot[keyref.name]
            return self.in_array[slot]
        var = frame.circuit.vars[keyref.name]
        return self.in_array[frame.in_idx + var.slot_offset]

    def on_call(self, frame: Frame, call: ast.TransformedCall, callee_frame: Frame):
        for param, source in call.callee_bindings.items():
            if source in frame.cenv:
                callee_frame.cenv[param] = frame.cenv[source]
            else:
                # wrapper-level argument plaintexts are recorded as witness
                # values before the wrapper body runs
                callee_frame.cenv[param] = self.witness[frame.path + source]

    # -- circuit expression evaluation (width or field semantics) --

    def eval_cexpr(self, frame: Frame, e: CExpr):
        if isinstance(e, CVar):
            return self.cvar_value(frame, e.name)
        if isinstance(e, CLit):
            if e.ctype.width == FIELD_WIDTH:
                return e.value % self.field.p
            return e.value & ((1 << e.ctype.width) - 1)
        if isinstance(e, CBin):
            left = self.eval_cexpr(frame, e.left)
            right = self.eval_cexpr(frame, e.right)
            ct = e.op_type
            if ct.width == FIELD_WIDTH:
                return self.field_binop(e.op, left, right)
            left = self.coerce_value(left, e.left.ctype, ct)
            if e.op not in ("<<", ">>"):
                right = self.coerce_value(right, e.right.ctype, ct)
            return int_binop(e.op, left, right, ct.width, ct.signed)
        if isinstance(e, CUn):
            v = self.eval_cexpr(frame, e.operand)
            ct = e.operand.ctype
            if ct.width == FIELD_WIDTH and e.op == "-":
                return (-v) % self.field.p
            return int_unop(e.op, v, ct.width, ct.signed)
        if isinstance(e, CCond):
            c = self.eval_cexpr(frame, e.cond)
            return self.eval_cexpr(frame, e.then_val) if c \
                else self.eval_cexpr(frame, e.else_val)
        if isinstance(e, CCast):
            v = self.eval_cexpr(frame, e.operand)
            return self.coerce_value(v, e.operand.ctype, e.ctype)
        raise RequireException(f"cannot simulate circuit expression {e}")

    def field_binop(self, op: str, a: int, b: int) -> int:
        p = self.field.p
        if op == "+":
            return (a + b) % p
        if op == "-":
            return (a - b) % p
        if op == "*":
            return (a * b) % p
        if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return int_binop(op, a, b, 256, False) if op in ("==", "!=") else \
                int({"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                     "&&": bool(a) and bool(b), "||": bool(a) or bool(b)}[op])
        raise RequireException(f"operator '{op}' undefined on field values")

    def coerce_value(self, v: int, src, dst) -> int:
        if src == dst:
            return v
        if dst.width == FIELD_WIDTH:
            if src.signed and v >= 1 << (src.width - 1):
                return (v - (1 << src.width)) % self.field.p
            return v % self.field.p
        if src.width == FIELD_WIDTH:
            return v & ((1 << dst.width) - 1)
        return int_cast(v, src.width, src.signed, dst.width, dst.signed)


# --- the contract interface -----------------------------------------------------------


class ContractInterface:
    """Callable surface of a deployed contract for one acting account; with
    address None, of the contract being deployed, whose storage is empty."""

    def __init__(self, artifact: CompiledArtifact, chain: MockChain,
                 address: Optional[int], account: int, data_dir: str,
                 rng: Optional[random.Random] = None, trace: bool = False):
        self.artifact = artifact
        self.chain = chain
        self.address = address
        self.account = account
        self.data_dir = data_dir
        self.rng = rng or random.Random()
        self.trace_enabled = trace
        self.keys = account_keys(data_dir, artifact.backend, account, chain)
        self.last_tx: Optional[TransformedTx] = None

    def _trace(self, msg: str):
        if self.trace_enabled:
            print(f"[trace] {msg}")

    def storage(self) -> Dict[str, Any]:
        return {} if self.address is None else self.chain.storage_of(self.address)

    # -- transaction flow --

    def simulate_call(self, fn: str, args: List[Any], value: int = 0) -> TransformedTx:
        """Simulate the transformed function, producing the transaction
        payload: encrypted arguments, the filled out array and the proof."""
        original = self._original_fn(fn)
        meta = self.artifact.tc.fn_meta.get(fn)
        if meta is None:
            raise RequireException(f"unknown function '{fn}'")
        entry = self.artifact.tc.entries.get(fn)
        env = TxEnv(sender=self.account, value=value, origin=self.account,
                    block_number=self.chain.block_number + 1,
                    timestamp=self.chain.timestamp + self.chain.timestamp_delta)
        sim = SimEvaluator(self.artifact, self.chain, self.address,
                           self.storage(), env, self.keys, entry, self.rng,
                           trace=self._trace if self.trace_enabled else None)
        try:
            if value:
                sim.receive_value()  # as the chain does before execution
            tx_args, witness_extra = self.encode_args(original, args, sim)
            sim.witness.update(witness_extra)
            if entry is None:
                # no verification required: submit the arguments as they are
                sim.call_function(fn, list(tx_args))
                return TransformedTx(fn=fn, args=tx_args, out=[], proof=None)
            sim.out_array = [0] * entry.out_total
            sim.call_function(fn, list(tx_args))
        finally:
            sim.undo()
        root = self.artifact.tc.circuits[entry.root_circuit]
        witness = dict(sim.witness)
        if root.needs_sk:
            witness["sk_me"] = self.keys.sk
        lowered = self.artifact.lowered[entry.root_circuit]
        keys = self.artifact.keys[entry.root_circuit]
        proof = prove(lowered, keys, [v % self.artifact.field.p for v in sim.in_array],
                      [v % self.artifact.field.p for v in sim.out_array], witness)
        tx = TransformedTx(fn=fn, args=tx_args, out=list(sim.out_array), proof=proof)
        if self.trace_enabled:
            tx.witness_log = witness  # sensitive: plaintexts and randomness
        return tx

    def _original_fn(self, fn: str) -> ast.FunctionDef:
        if fn == "constructor":
            original = self.artifact.tc.tast.contract.constructor
            if original is None:
                return ast.FunctionDef(name="constructor", params=[],
                                       body=ast.Block(stmts=[]), is_constructor=True)
            return original
        return self.artifact.tc.tast.contract.function(fn)

    def encode_args(self, original: ast.FunctionDef, args: List[Any],
                    sim: SimEvaluator) -> Tuple[List[Any], Dict[str, Any]]:
        """Encrypt private arguments under their owner's key and record
        plaintext/randomness as private circuit inputs."""
        if len(args) != len(original.params):
            raise RequireException(
                f"{original.name} expects {len(original.params)} arguments")
        backend = self.artifact.backend
        out_args: List[Any] = []
        witness: Dict[str, Any] = {}
        for p, a in zip(original.params, args):
            label = p.ann_type.label
            if label is None or label.name == "all":
                out_args.append(a)
                continue
            owner = self.resolve_owner_address(label.name, original, args)
            pk = self.chain.pki_get(backend.name, owner)
            dtype = p.ann_type.base.resolved
            width, _ = type_width(dtype)
            if width == 256:
                plain = int(a) % self.artifact.field.p
            else:
                plain = int(a) & ((1 << width) - 1)  # two's-complement pattern
            rnd = self.rng.getrandbits(128)
            cipher = backend.enc(plain, pk, self.keys, rnd)
            witness[f"arg_{p.name}_plain"] = plain
            witness[f"arg_{p.name}_rnd"] = cipher[0] if backend.hybrid else rnd
            out_args.append(cipher)
        return out_args, witness

    def resolve_owner_address(self, label: str, fn: ast.FunctionDef,
                              args: List[Any]) -> int:
        if label == "me":
            return self.account
        for p, a in zip(fn.params, args):
            if p.name == label:
                return int(a)
        storage = self.storage()
        if label in storage:
            return int(storage[label])
        raise RequireException(f"cannot resolve owner '@{label}'")

    def call(self, fn: str, args: List[Any], value: int = 0) -> TxReceipt:
        """Transform and submit one transaction; a failed local simulation is
        never submitted and reports as a reverted receipt."""
        try:
            tx = self.simulate_call(fn, args, value)
        except RequireException as e:
            return TxReceipt(False, revert_reason=e.reason, exit_kind="require")
        except ProvingError as e:
            return TxReceipt(False, revert_reason=str(e), exit_kind="verification")
        self.last_tx = tx
        receipt = self.chain.transact(self.address, fn, tx.args, self.account,
                                      value, tx.out, tx.proof, self.artifact)
        return receipt

    # -- views --

    def state(self, var: str, keys: Tuple = ()) -> Any:
        """Raw state value; ciphertexts owned by the acting account are
        decrypted, foreign ciphertexts returned verbatim."""
        node, dtype, label = walk_storage(self.artifact.tc, var,
                                          self.storage().get(var), keys)
        if isinstance(dtype, MappingType):
            raise RequireException(f"'{var}' needs more keys")
        if label.is_public:
            return node if node is not None else 0
        cipher = tuple(node) if node is not None else zero_cipher(self.artifact.backend)
        owner = self._label_owner(label, keys, var)
        if owner == self.account:
            plain, _ = self.artifact.backend.dec(cipher, self.keys)
            return plain
        return cipher

    def _label_owner(self, label, keys: Tuple, var: str) -> Optional[int]:
        if label.is_me:
            return self.account
        if label.kind == "ident":
            # mapping tag: the owner is the access key; otherwise a state var
            dtype = self.artifact.tc.tast.state[var].atype.dtype
            if isinstance(dtype, MappingType) and dtype.tag == label.name and keys:
                return int(keys[0])
            storage = self.storage()
            if label.name in storage:
                return int(storage[label.name])
        return None


# --- deploy / connect -------------------------------------------------------------------


def ensure_pki(artifact: CompiledArtifact, chain: MockChain) -> int:
    addr = chain.pki_address(artifact.backend_name)
    if addr is None:
        addr = chain.deploy_pki(artifact.backend_name, artifact.pki_text)
    return addr


def deploy(artifact: CompiledArtifact, chain: MockChain, account: int,
           args: List[Any], value: int = 0, data_dir: str = ".veil-data",
           rng: Optional[random.Random] = None,
           trace: bool = False) -> Tuple[int, TxReceipt]:
    """Deploy to the mock chain: publishes verifier records, links the PKI,
    and runs the constructor as a transformed transaction."""
    pki_addr = ensure_pki(artifact, chain)
    pending = ContractInterface(artifact, chain, None, account, data_dir, rng,
                                trace)
    tx = TransformedTx(fn="constructor", args=list(args), out=[], proof=None)
    if "constructor" in artifact.tc.fn_meta:
        try:
            tx = pending.simulate_call("constructor", args, value)
        except RequireException as e:
            return 0, TxReceipt(False, revert_reason=e.reason, exit_kind="require")
    address, receipt = chain.deploy(artifact, account, tx.args, value, tx.out,
                                    tx.proof, pki_addr)
    return address, receipt


def verify_integrity(artifact: CompiledArtifact, chain: MockChain,
                     address: int) -> None:
    """Recompile-substitute-compare: the local artifact (rebuilt under the
    manifest settings with cached keys) must reproduce the digests recorded
    at deployment for the main, verifier and PKI contracts."""
    record = chain.contracts.get(address)
    if record is None or record.kind != "main":
        raise IntegrityError("no contract deployed at this address")
    links = record.links
    pki_addr = links.get("pki")
    pki_record = chain.contracts.get(pki_addr)
    if pki_record is None or pki_record.kind != "pki":
        raise IntegrityError("PKI link of the remote contract is broken")
    if pki_record.digest != artifact.pki_digest().hex():
        raise IntegrityError("PKI contract")
    verifier_links = links.get("verifiers", {})
    if sorted(verifier_links) != sorted(artifact.verifier_texts):
        raise IntegrityError("verifier contract set differs")
    for circuit in sorted(verifier_links):
        vrec = chain.contracts.get(verifier_links[circuit])
        if vrec is None or vrec.digest != artifact.verifier_digest(circuit).hex():
            raise IntegrityError(f"verifier contract '{circuit}'")
    if artifact.content_digest().hex() != record.digest:
        raise IntegrityError("main contract")
    # substitute the remote link addresses into the local artifact and
    # compare the resulting instance digest
    local = artifact.main_digest(pki_addr, verifier_links).hex()
    if local != record.instance_digest:
        raise IntegrityError("main contract")


def connect(artifact: CompiledArtifact, chain: MockChain, address: int,
            account: int, data_dir: str = ".veil-data",
            rng: Optional[random.Random] = None,
            trace: bool = False) -> ContractInterface:
    verify_integrity(artifact, chain, address)
    return ContractInterface(artifact, chain, address, account, data_dir,
                             rng, trace)


# --- interactive shell ---------------------------------------------------------------


REPL_HELP = """\
commands:
  call <fn>(<args>) [value=<n>]   issue a transaction
  state <var>[key]                query a state variable (decrypts own values)
  balance [<addr>]                account balance
  me <addr>                       switch the acting account
  help                            this text
  exit                            leave the shell
"""


def repl(iface: ContractInterface, input_fn=None, output_fn=print) -> ContractInterface:
    if input_fn is None:
        input_fn = input
    output_fn(f"connected to {iface.artifact.tc.name} at {iface.address:#x}; "
              f"acting as {iface.account:#x}")
    while True:
        try:
            line = input_fn("> ").strip()
        except EOFError:
            break
        if not line:
            continue
        try:
            if line in ("exit", "quit"):
                break
            if line == "help":
                output_fn(REPL_HELP)
            elif line.startswith("call "):
                _repl_call(iface, line[5:], output_fn)
            elif line.startswith("state "):
                _repl_state(iface, line[6:], output_fn)
            elif line.startswith("balance"):
                rest = line[len("balance"):].strip()
                addr = int(rest, 0) if rest else iface.account
                output_fn(f"balance({addr:#x}) = {iface.chain.balance_of(addr)}")
            elif line.startswith("me "):
                iface = ContractInterface(iface.artifact, iface.chain,
                                          iface.address, int(line[3:], 0),
                                          iface.data_dir, iface.rng,
                                          iface.trace_enabled)
                output_fn(f"acting as {iface.account:#x}")
            else:
                output_fn(f"unknown command; type 'help'")
        except (RequireException, ProvingError, ChainError, ValueError) as e:
            output_fn(f"error: {e}")
    return iface


def _repl_call(iface: ContractInterface, rest: str, output_fn):
    value = 0
    if "value=" in rest:
        rest, _, v = rest.rpartition("value=")
        value = int(v.strip(), 0)
        rest = rest.strip()
    name, _, argtext = rest.partition("(")
    argtext = argtext.rstrip(")")
    args = []
    if argtext.strip():
        for piece in argtext.split(","):
            piece = piece.strip()
            if piece in ("true", "false"):
                args.append(1 if piece == "true" else 0)
            else:
                args.append(int(piece, 0))
    receipt = iface.call(name.strip(), args, value)
    if receipt.success:
        output_fn(f"ok: gas_proxy={receipt.gas_proxy} "
                  f"changed={','.join(receipt.state_diff) or '-'}"
                  + (f" returned={receipt.return_value}"
                     if receipt.return_value is not None else ""))
    else:
        output_fn(f"reverted ({receipt.exit_kind}): {receipt.revert_reason}")


def _repl_state(iface: ContractInterface, rest: str, output_fn):
    rest = rest.strip()
    name, _, keypart = rest.partition("[")
    keys: Tuple = ()
    if keypart:
        raw = keypart.rstrip("]")
        key = iface.account if raw == "me" else int(raw, 0)
        keys = (key,)
    value = iface.state(name.strip(), keys)
    if isinstance(value, tuple):
        output_fn(f"{rest} = cipher{list(value)} (not owned by the acting account)")
    else:
        output_fn(f"{rest} = {value}")

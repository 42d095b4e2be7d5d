"""Deterministic emission: the transformed main contract and verifier
contracts as Solidity-flavored text, the build manifest, and export/import
archives.

The emitted text is consumed by humans, golden tests and the integrity
check (the mock chain executes the transformed AST, not the text), so the
only hard requirement is byte-for-byte determinism.  Linked contract
addresses appear as placeholders that deployment substitutes before
digesting.
"""
from __future__ import annotations

import hashlib
import json
import os
import tarfile
from typing import Dict, List

from . import ast
from .proving import (SCHEME_NAME, ProvingError, TransparentKeys, VerifierKey,
                      write_atomic)
from .transform import TransformedContract

PKI_PLACEHOLDER = "$PKI_ADDRESS$"
VERIFIER_PLACEHOLDER = "$VERIFIER_{name}_ADDRESS$"

TOOL_NAME = "veil"
MANIFEST_FORMAT = 1
ARCHIVE_EXTENSION = ".zkp"


def emit_pki_contract(backend_name: str, key_slots: int = 1) -> str:
    return f"""\
// Public key infrastructure for the '{backend_name}' encryption backend.
pragma solidity ^0.8.0;

contract PublicKeyInfrastructure {{
    mapping(address => uint) pks;
    mapping(address => bool) hasAnnounced;

    function announcePk(uint pk) public {{
        require(!hasAnnounced[msg.sender]);
        pks[msg.sender] = pk;
        hasAnnounced[msg.sender] = true;
    }}

    function getPk(address a) public view returns (uint) {{
        require(hasAnnounced[a]);
        return pks[a];
    }}
}}
"""


def emit_verifier_contract(circuit: str, keys: TransparentKeys) -> str:
    """One verifier contract per proof circuit: embeds the verifying-key
    digest and the public slot layout; includes the on-chain input hashing
    code when the optimization is active."""
    vk = keys.verifier
    lines = [
        f"// Verification contract for proof circuit '{circuit}'.",
        f"// Proving scheme: {SCHEME_NAME}.",
        "pragma solidity ^0.8.0;",
        "",
        f"contract Verifier_{circuit} {{",
        f"    bytes32 constant VK_DIGEST = 0x{vk.digest.hex()};",
        f"    uint constant N_IN = {vk.n_in};",
        f"    uint constant N_OUT = {vk.n_out};",
    ]
    if vk.hashing_active:
        lines += [
            f"    // public inputs are folded into one SHA-256 digest "
            f"({vk.hash_mode}, {vk.hash_compressions} compressions)",
            "    function publicDigest(uint[] memory zk_in, uint[] memory zk_out)",
            "            internal pure returns (uint) {",
            "        bytes memory blob;",
            "        for (uint i = 0; i < N_IN; i++) { blob = abi.encodePacked(blob, zk_in[i]); }",
            "        for (uint i = 0; i < N_OUT; i++) { blob = abi.encodePacked(blob, zk_out[i]); }",
            "        return uint(sha256(blob)) & ((uint(1) << 253) - 1);",
            "    }",
            "",
            "    function check(bytes memory proof, uint[] memory zk_in,",
            "                   uint[] memory zk_out) public view {",
            "        uint h = publicDigest(zk_in, zk_out);",
            "        require(verifyProof(proof, h), \"invalid proof\");",
            "    }",
        ]
    else:
        lines += [
            "    function check(bytes memory proof, uint[] memory zk_in,",
            "                   uint[] memory zk_out) public view {",
            "        require(zk_in.length == N_IN && zk_out.length == N_OUT);",
            "        require(verifyProof(proof, zk_in, zk_out), \"invalid proof\");",
            "    }",
        ]
    lines += [
        "",
        "    // proof verification against VK_DIGEST is provided by the",
        "    // proving-scheme runtime",
        "}",
        "",
    ]
    return "\n".join(lines)


class ContractEmitter:
    """Prints the transformed on-chain AST as Solidity-flavored text."""

    def __init__(self, tc: TransformedContract):
        self.tc = tc

    def emit(self) -> str:
        c = self.tc.contract
        out = [
            f"// Transformed contract '{c.name}' (crypto backend: "
            f"{self.tc.backend_name}).",
            "pragma solidity ^0.8.0;",
            "",
            f"contract {c.name} {{",
            f"    PublicKeyInfrastructure constant PKI = "
            f"PublicKeyInfrastructure({PKI_PLACEHOLDER});",
        ]
        for name in sorted(self.tc.entries):
            entry = self.tc.entries[name]
            placeholder = VERIFIER_PLACEHOLDER.format(name=entry.root_circuit)
            out.append(f"    Verifier_{entry.root_circuit} constant "
                       f"Verifier_{entry.root_circuit} = "
                       f"Verifier_{entry.root_circuit}({placeholder});")
        out.append("")
        for enum in c.enums:
            out.append("    " + enum.code())
        for sv in c.state_vars:
            out.append("    " + self.state_var_code(sv))
        if c.constructor is not None:
            out.extend(self.emit_function(c.constructor))
        for fn in c.functions:
            out.extend(self.emit_function(fn))
        out.append("}")
        return "\n".join(out) + "\n"

    def state_var_code(self, sv: ast.StateVarDecl) -> str:
        return f"{self.type_code(sv.ann_type)} {sv.name};"

    def type_code(self, ann: ast.AnnotatedTypeName) -> str:
        if isinstance(ann.base, ast.MappingTypeName):
            return (f"mapping({ann.base.key.code()} => "
                    f"{self.type_code(ann.base.value)})")
        if ann.label is not None and ann.label.name != "all":
            return f"uint[{self.tc_backend_slots()}] /*cipher*/"
        return ann.base.code()

    def tc_backend_slots(self) -> int:
        from .crypto import backend_by_name
        from .field import DEFAULT_FIELD
        return backend_by_name(self.tc.backend_name, DEFAULT_FIELD).cipher_slots

    def emit_function(self, fn: ast.FunctionDef) -> List[str]:
        meta = self.tc.fn_meta.get(fn.name)
        params = [f"{self.type_code(p.ann_type)} {p.name}" for p in fn.params]
        if meta is not None and meta.kind == "wrapper":
            params += ["uint[] memory out", "bytes memory proof"]
        elif meta is not None and meta.kind == "internal" and meta.needs_sections:
            params += ["uint[] memory in", "uint[] memory out",
                       "uint in_idx", "uint out_idx"]
        head = "constructor" if fn.is_constructor else f"function {fn.name}"
        sig = f"    {head}({', '.join(params)})"
        mods = []
        if not fn.is_constructor:
            mods.append(fn.visibility)
        if fn.mutability:
            mods.append(fn.mutability)
        if fn.returns:
            rts = ", ".join(self.type_code(r) for r in fn.returns)
            mods.append(f"returns ({rts})")
        if mods:
            sig += " " + " ".join(mods)
        body = ast.stmt_code(fn.body, "    ")
        lines = ["", sig] + body.splitlines()
        return [l for l in lines if l.strip() != "// zk"]


def emit_main_contract(tc: TransformedContract) -> str:
    return ContractEmitter(tc).emit()


# --- manifest -----------------------------------------------------------------------


def build_manifest(tc: TransformedContract, source_text: str, settings,
                   keys: Dict[str, TransparentKeys]) -> dict:
    from . import __version__
    return {
        "format": MANIFEST_FORMAT,
        "tool": TOOL_NAME,
        "tool_version": __version__,
        "language_version": "1.0",
        "contract": tc.name,
        "crypto_backend": settings.crypto_backend,
        "proving_scheme": SCHEME_NAME,
        "hash_threshold": settings.hash_threshold,
        "hash_mode": settings.hash_mode,
        "prime": settings.prime,
        "source_digest": hashlib.sha256(source_text.encode()).hexdigest(),
        "circuits": {
            name: {
                "vk_digest": k.verifier.digest.hex(),
                "pk_digest": hashlib.sha256(k.prover.serialize()).hexdigest(),
                "n_in": k.verifier.n_in,
                "n_out": k.verifier.n_out,
            } for name, k in sorted(keys.items())
        },
    }


def manifest_bytes(manifest: dict) -> bytes:
    return json.dumps(manifest, sort_keys=True, indent=1).encode()


# --- archives --------------------------------------------------------------------------


ARCHIVE_ENTRIES = ("contract.zkay", "manifest.json")


def _is_archive_entry(name: str) -> bool:
    """The plain file names an archive may hold: the source, the manifest
    and the key files, never a path."""
    if "/" in name or "\\" in name:
        return False
    return name in ARCHIVE_ENTRIES or (
        name.startswith(("proving_", "verifying_")) and name.endswith(".key"))


def export_archive(build_dir: str, archive_path: str):
    """Deterministic tar: sorted entries, zeroed timestamps and owners, so
    re-exporting identical content reproduces the identical archive."""
    names = sorted(e for e in os.listdir(build_dir) if _is_archive_entry(e))
    with open(archive_path, "wb") as fh:
        with tarfile.open(fileobj=fh, mode="w", format=tarfile.USTAR_FORMAT) as tar:
            for name in names:
                path = os.path.join(build_dir, name)
                info = tarfile.TarInfo(name=name)
                info.size = os.path.getsize(path)
                info.mtime = 0
                info.uid = info.gid = 0
                info.uname = info.gname = ""
                info.mode = 0o644
                with open(path, "rb") as f:
                    tar.addfile(info, f)


class ArchiveError(Exception):
    pass


def import_archive(archive_path: str, target_dir: str) -> dict:
    """Unpack and validate an archive; returns its manifest.  Every entry
    must be a regular file named as `export_archive` names them, every key
    file must belong to a circuit the manifest lists and match its entry
    there (the proving key's digest; the verifying key's digest and public
    slot counts) and tool versions must be compatible; nothing is written
    unless all of that holds, and each file is then replaced atomically."""
    from . import __version__
    with tarfile.open(archive_path, "r") as tar:
        members = {}
        for m in tar.getmembers():
            if not (m.isfile() and _is_archive_entry(m.name)):
                raise ArchiveError(f"archive entry '{m.name}' is not a contract, "
                                   f"manifest or key file")
            members[m.name] = m
        for required in ARCHIVE_ENTRIES:
            if required not in members:
                raise ArchiveError(f"archive is missing '{required}'")
        manifest = json.loads(tar.extractfile(members["manifest.json"]).read())
        if manifest.get("format", 0) > MANIFEST_FORMAT or \
                manifest.get("tool") != TOOL_NAME:
            raise ArchiveError(
                f"archive was produced by an incompatible tool version "
                f"({manifest.get('tool')} {manifest.get('tool_version')}, "
                f"this is {TOOL_NAME} {__version__})")
        if _version_tuple(manifest.get("tool_version", "0")) > _version_tuple(__version__):
            raise ArchiveError(
                f"archive requires a newer tool version "
                f"({manifest.get('tool_version')} > {__version__})")
        files = {}
        for name, m in sorted(members.items()):
            data = tar.extractfile(m).read()
            if name.endswith(".key"):
                _check_key(name, data, manifest.get("circuits", {}))
            files[name] = data
    os.makedirs(target_dir, exist_ok=True)
    for name, data in files.items():
        write_atomic(os.path.join(target_dir, name), data)
    return manifest


def _check_key(name: str, data: bytes, circuits: dict):
    """`name` is `proving_<circuit>.key` or `verifying_<circuit>.key`."""
    kind, circuit = name[:-len(".key")].split("_", 1)
    meta = circuits.get(circuit)
    if meta is None:
        raise ArchiveError(f"archive entry '{name}' is a key for circuit "
                           f"'{circuit}', which the manifest does not list")
    if kind == "proving":
        ok = hashlib.sha256(data).hexdigest() == meta.get("pk_digest")
    else:
        try:
            vk = VerifierKey.deserialize(data)
        except (ProvingError, AttributeError, KeyError, TypeError, ValueError):
            vk = None
        ok = vk is not None and (vk.digest.hex(), vk.n_in, vk.n_out) == \
            (meta.get("vk_digest"), meta.get("n_in"), meta.get("n_out"))
    if not ok:
        raise ArchiveError(f"archive entry '{name}' is corrupted")


def _version_tuple(v: str):
    return tuple(int(x) for x in v.split(".") if x.isdigit())

"""Compilation pipeline: parse, run the static checks, transform, inline and
lower every entry circuit, generate (or reuse cached) keys, and emit the
output directory with contract text, verifier contracts, constraint systems,
keys and the manifest.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional

from .analysis import analyze
from .config import Config
from .crypto import CryptoBackend, backend_by_name
from .emit import (PKI_PLACEHOLDER, VERIFIER_PLACEHOLDER, build_manifest,
                   emit_main_contract, emit_pki_contract,
                   emit_verifier_contract, manifest_bytes)
from .field import Field, field_by_name
from .lowering import LoweredCircuit, inline_calls, lower
from .parser import parse
from .proving import KeyCache, TransparentKeys, keygen
from .source import SourceFile
from .transform import TransformedContract, transform_contract

SOURCE_COPY = "contract.zkay"


@dataclass(frozen=True)
class BuildSettings:
    crypto_backend: str = "dummy"
    hash_threshold: int = 10
    hash_mode: str = "concat"
    prime: str = "bn254"

    @classmethod
    def from_config(cls, cfg: Config) -> "BuildSettings":
        return cls(crypto_backend=cfg.crypto_backend,
                   hash_threshold=cfg.hash_threshold,
                   hash_mode=cfg.hash_mode, prime=cfg.prime)

    @classmethod
    def from_manifest(cls, manifest: dict) -> "BuildSettings":
        return cls(crypto_backend=manifest["crypto_backend"],
                   hash_threshold=manifest["hash_threshold"],
                   hash_mode=manifest["hash_mode"], prime=manifest["prime"])


@dataclass
class CompiledArtifact:
    source: SourceFile
    settings: BuildSettings
    field: Field
    backend: CryptoBackend
    tc: TransformedContract
    lowered: Dict[str, LoweredCircuit]
    keys: Dict[str, TransparentKeys]
    manifest: dict
    main_text: str
    verifier_texts: Dict[str, str]
    pki_text: str
    keygen_generated: int = 0
    keygen_reused: int = 0

    @property
    def backend_name(self) -> str:
        return self.settings.crypto_backend

    def content_digest(self) -> bytes:
        """Digest of the main contract text with link placeholders intact;
        identical across deployments of the same artifact."""
        return hashlib.sha256(self.main_text.encode()).digest()

    def main_digest(self, pki_addr: int, verifier_addrs: Dict[str, int]) -> bytes:
        """Digest of the main contract text with linked addresses
        substituted for their placeholders."""
        text = self.main_text.replace(PKI_PLACEHOLDER, f"{pki_addr:#042x}")
        for name, addr in sorted(verifier_addrs.items()):
            text = text.replace(VERIFIER_PLACEHOLDER.format(name=name),
                                f"{addr:#042x}")
        return hashlib.sha256(text.encode()).digest()

    def pki_digest(self) -> bytes:
        return hashlib.sha256(self.pki_text.encode()).digest()

    def verifier_digest(self, circuit: str) -> bytes:
        return hashlib.sha256(self.verifier_texts[circuit].encode()).digest()


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector, restoring the caller's setting
    on exit.  Lowering allocates millions of objects that live as long as
    the circuit; collections would rescan them and free nothing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def compile_source(source: SourceFile, settings: BuildSettings,
                   output_dir: Optional[str] = None) -> CompiledArtifact:
    """Compile a contract: front end, lowering of every entry circuit, keys
    and emitted texts.  With `output_dir`, keys come from its key cache and
    the build is written there.

    The cyclic garbage collector is paused while circuits are lowered and
    restored to the caller's setting afterwards, also when lowering raises."""
    contract = parse(source)
    tast = analyze(source, contract)
    field = field_by_name(settings.prime)
    backend = backend_by_name(settings.crypto_backend, field)
    tc = transform_contract(tast, backend)

    lowered: Dict[str, LoweredCircuit] = {}
    with _collector_paused():
        for entry in tc.entries.values():
            flat = inline_calls(tc.circuits, entry.root_circuit, entry.layout)
            lowered[entry.root_circuit] = lower(
                flat, backend, field, entry.in_total, entry.out_total,
                settings.hash_threshold, settings.hash_mode)

    cache = KeyCache(output_dir) if output_dir else None
    keys: Dict[str, TransparentKeys] = {}
    for name in sorted(lowered):
        if cache is not None:
            keys[name] = cache.get_or_generate(name, lowered[name])
        else:
            keys[name] = keygen(lowered[name])

    manifest = build_manifest(tc, source.text, settings, keys)
    artifact = CompiledArtifact(
        source=source, settings=settings, field=field, backend=backend,
        tc=tc, lowered=lowered, keys=keys, manifest=manifest,
        main_text=emit_main_contract(tc),
        verifier_texts={name: emit_verifier_contract(name, keys[name])
                        for name in sorted(keys)},
        pki_text=emit_pki_contract(settings.crypto_backend),
        keygen_generated=cache.generated if cache else len(keys),
        keygen_reused=cache.reused if cache else 0)
    if output_dir is not None:
        write_output_dir(artifact, output_dir)
    return artifact


def write_output_dir(artifact: CompiledArtifact, output_dir: str):
    os.makedirs(output_dir, exist_ok=True)

    def put(name: str, data):
        mode = "wb" if isinstance(data, bytes) else "w"
        with open(os.path.join(output_dir, name), mode) as f:
            f.write(data)

    put(SOURCE_COPY, artifact.source.text)
    put("contract.sol", artifact.main_text)
    put("pki.sol", artifact.pki_text)
    for name, text in artifact.verifier_texts.items():
        put(f"verifier_{name}.sol", text)
    for name, keys in artifact.keys.items():
        put(f"circuit_{name}.r1cs", keys.prover.cs_bytes)
    put("manifest.json", manifest_bytes(artifact.manifest))
    # key files are written by the key cache during compilation


class ArtifactError(Exception):
    pass


def load_artifact(build_dir: str) -> CompiledArtifact:
    """Recompile a build directory from its source copy under the manifest
    settings, reusing the cached keys; digests must reproduce the manifest."""
    manifest_path = os.path.join(build_dir, "manifest.json")
    source_path = os.path.join(build_dir, SOURCE_COPY)
    if not os.path.exists(manifest_path) or not os.path.exists(source_path):
        raise ArtifactError(f"{build_dir} is not a compiled contract directory")
    with open(manifest_path) as f:
        manifest = json.load(f)
    settings = BuildSettings.from_manifest(manifest)
    source = SourceFile(source_path, open(source_path).read())
    if hashlib.sha256(source.text.encode()).hexdigest() != manifest["source_digest"]:
        raise ArtifactError("source file does not match the manifest digest")
    artifact = compile_source(source, settings, output_dir=build_dir)
    for name, meta in manifest["circuits"].items():
        have = artifact.keys.get(name)
        if have is None or have.verifier.digest.hex() != meta["vk_digest"]:
            raise ArtifactError(
                f"circuit '{name}' does not reproduce the manifest key digest")
    return artifact

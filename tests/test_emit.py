import hashlib
import io
import json
import os
import tarfile

import pytest

from veil.compiler import (BuildSettings, compile_source, load_artifact,
                           ArtifactError)
from veil.emit import (ArchiveError, export_archive, import_archive,
                       emit_pki_contract)
from veil.proving import VerifierKey, keygen
from veil.r1cs import ConstraintSystem
from veil.source import SourceFile

from conftest import load_source


@pytest.fixture(scope="module")
def token_artifact():
    return compile_source(load_source("token"), BuildSettings())


def test_emission_deterministic(token_artifact):
    again = compile_source(load_source("token"), BuildSettings())
    assert again.main_text == token_artifact.main_text
    assert again.verifier_texts == token_artifact.verifier_texts
    assert again.pki_text == token_artifact.pki_text
    assert again.manifest == token_artifact.manifest


def test_main_contract_shape(token_artifact):
    text = token_artifact.main_text
    assert "$PKI_ADDRESS$" in text
    assert "contract Token" in text
    assert "function buy_inner" in text
    assert "uint[] memory in" in text and "bytes memory proof" in text
    assert "PKI.getPk(me)" in text
    assert text.count("Verifier_Token_buy_ext.check(proof, in, out);") == 1


def test_passthrough_contract_has_no_verifier(tmp_path):
    artifact = compile_source(SourceFile("p.zkay", """
    contract Plain {
        uint x;
        function f(uint v) public { x = x + v; }
    }"""), BuildSettings())
    assert "Verifier" not in artifact.main_text
    assert artifact.verifier_texts == {}


def test_verifier_contract_embeds_key(token_artifact):
    entry = token_artifact.tc.entries["buy"]
    vk = token_artifact.keys[entry.root_circuit].verifier
    text = token_artifact.verifier_texts[entry.root_circuit]
    assert vk.digest.hex() in text
    assert f"N_IN = {vk.n_in}" in text
    assert "sha256" not in text  # hashing off below threshold


def test_verifier_contract_hashing_code():
    artifact = compile_source(load_source("token"),
                              BuildSettings(hash_threshold=0))
    entry = artifact.tc.entries["buy"]
    text = artifact.verifier_texts[entry.root_circuit]
    vk = artifact.keys[entry.root_circuit].verifier
    assert "sha256" in text
    assert f"{vk.hash_compressions} compressions" in text
    assert vk.hash_compressions == (vk.n_in + vk.n_out) // 2 + 1


def test_output_directory_layout(tmp_path):
    out = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=out)
    names = sorted(os.listdir(out))
    assert names == [
        "circuit_Token_buy_ext.r1cs",
        "contract.sol",
        "contract.zkay",
        "manifest.json",
        "pki.sol",
        "proving_Token_buy_ext.key",
        "verifier_Token_buy_ext.sol",
        "verifying_Token_buy_ext.key",
    ]


def test_manifest_contents(token_artifact):
    m = token_artifact.manifest
    assert m["crypto_backend"] == "dummy"
    assert m["proving_scheme"] == "transparent-v1"
    assert m["prime"] == "bn254"
    assert m["source_digest"] == hashlib.sha256(
        token_artifact.source.text.encode()).hexdigest()
    entry = token_artifact.tc.entries["buy"]
    assert entry.root_circuit in m["circuits"]


def test_manifest_reproduces_artifacts(tmp_path):
    out = str(tmp_path / "build")
    first = compile_source(load_source("token"), BuildSettings(), output_dir=out)
    again = load_artifact(out)
    assert again.main_text == first.main_text
    assert again.manifest == first.manifest
    assert again.keygen_generated == 0  # cached keys were reused
    assert again.keygen_reused == len(first.keys)


def test_load_artifact_rejects_modified_source(tmp_path):
    out = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=out)
    path = os.path.join(out, "contract.zkay")
    with open(path, "a") as f:
        f.write("// tampered\n")
    with pytest.raises(ArtifactError):
        load_artifact(out)


def test_load_artifact_regenerates_corrupt_key(tmp_path):
    out = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=out)
    (circuit,) = load_artifact(out).keys
    key_file = os.path.join(out, f"proving_{circuit}.key")
    with open(key_file, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        byte = f.read(1)
        f.seek(-1, os.SEEK_END)
        f.write(bytes([byte[0] ^ 0x01]))
    again = load_artifact(out)
    assert (again.keygen_generated, again.keygen_reused) == (1, 0)
    fresh = keygen(again.lowered[circuit]).prover.serialize()
    with open(key_file, "rb") as f:
        assert f.read() == fresh
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["circuits"][circuit]["pk_digest"] == \
        hashlib.sha256(fresh).hexdigest()


def test_one_serialization_per_circuit(tmp_path, monkeypatch):
    calls = []
    original = ConstraintSystem.serialize

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ConstraintSystem, "serialize", counting)
    out = str(tmp_path / "build")
    artifact = compile_source(load_source("token"), BuildSettings(), output_dir=out)
    assert len(calls) == len(artifact.keys) == 1
    calls.clear()
    load_artifact(out)
    assert len(calls) == len(artifact.keys)


# --- archives --------------------------------------------------------------------


def test_archive_round_trip_identical_digest(tmp_path):
    build = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=build)
    a1 = str(tmp_path / "one.zkp")
    export_archive(build, a1)
    imported = str(tmp_path / "imported")
    import_archive(a1, imported)
    load_artifact(imported)  # regenerate emitted files from source + keys
    a2 = str(tmp_path / "two.zkp")
    export_archive(imported, a2)
    with open(a1, "rb") as f1, open(a2, "rb") as f2:
        assert hashlib.sha256(f1.read()).digest() == hashlib.sha256(f2.read()).digest()


def test_archive_corrupted_key_entry_named(tmp_path):
    build = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=build)
    key_file = os.path.join(build, "proving_Token_buy_ext.key")
    with open(key_file, "r+b") as f:
        f.seek(20)
        byte = f.read(1)
        f.seek(20)
        f.write(bytes([byte[0] ^ 0xFF]))
    archive = str(tmp_path / "bad.zkp")
    export_archive(build, archive)
    with pytest.raises(ArchiveError) as err:
        import_archive(archive, str(tmp_path / "t"))
    assert "proving_Token_buy_ext.key" in str(err.value)


def test_archive_newer_tool_version_rejected(tmp_path):
    build = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=build)
    manifest_path = os.path.join(build, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["tool_version"] = "99.0.0"
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
    archive = str(tmp_path / "future.zkp")
    export_archive(build, archive)
    with pytest.raises(ArchiveError) as err:
        import_archive(archive, str(tmp_path / "t"))
    assert "newer" in str(err.value)


def test_pki_text_mentions_backend():
    assert "'dh-arx'" in emit_pki_contract("dh-arx")
    assert "announcePk" in emit_pki_contract("dummy")


def _archive_with(tmp_path, good, extra, name):
    """Copy of the archive `good` with the tar members in `extra` added."""
    path = str(tmp_path / name)
    with tarfile.open(good) as src, tarfile.open(path, "w", format=tarfile.PAX_FORMAT) as dst:
        for m in src.getmembers():
            dst.addfile(m, src.extractfile(m))
        for info, data in extra:
            dst.addfile(info, io.BytesIO(data) if data is not None else None)
    return path


def test_archive_import_rejects_paths_and_non_regular_members(tmp_path):
    build = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=build)
    good = str(tmp_path / "good.zkp")
    export_archive(build, good)

    def regular(name, data=b"escaped"):
        info = tarfile.TarInfo(name)
        info.size = len(data)
        return info, data

    def special(name, kind, target=""):
        info = tarfile.TarInfo(name)
        info.type = kind
        info.linkname = target
        return info, None

    evil = {
        "dotdot": [regular("../x")],
        "nested-dotdot": [regular("keys/../../y")],
        "absolute": [regular(str(tmp_path / "abs.txt"))],
        "directory": [special("keys", tarfile.DIRTYPE)],
        "symlink": [special("proving_Evil.key", tarfile.SYMTYPE, "../x")],
    }
    for case, extra in evil.items():
        archive = _archive_with(tmp_path, good, extra, f"{case}.zkp")
        before = sorted(os.listdir(tmp_path))
        target = tmp_path / "unpacked" / case
        with pytest.raises(ArchiveError):
            import_archive(archive, str(target))
        assert sorted(os.listdir(tmp_path)) == before, case
        assert not target.exists(), case


def test_archive_import_checks_key_files_against_the_manifest(tmp_path):
    build = str(tmp_path / "build")
    compile_source(load_source("token"), BuildSettings(), output_dir=build)
    vk_file = os.path.join(build, "verifying_Token_buy_ext.key")
    with open(vk_file, "rb") as f:
        genuine = f.read()
    good = str(tmp_path / "good.zkp")
    export_archive(build, good)
    vk = VerifierKey.deserialize(genuine)
    bad_keys = {
        "zero-digest": VerifierKey(bytes(32), vk.n_in, vk.n_out, vk.hashing_active,
                                   vk.hash_mode, vk.hash_compressions,
                                   vk.field_name).serialize(),
        "n_in": VerifierKey(vk.digest, 99, vk.n_out, vk.hashing_active,
                            vk.hash_mode, vk.hash_compressions,
                            vk.field_name).serialize(),
        "garbage": b"not a key",
    }
    archives = {}
    for case, data in bad_keys.items():
        with open(vk_file, "wb") as f:
            f.write(data)
        archives[case] = str(tmp_path / f"{case}.zkp")
        export_archive(build, archives[case])
    info = tarfile.TarInfo("proving_Nope.key")
    info.size = 4
    archives["unknown-circuit"] = _archive_with(
        tmp_path, good, [(info, b"nope")], "unknown-circuit.zkp")
    for case, archive in archives.items():
        target = tmp_path / "unpacked" / case
        with pytest.raises(ArchiveError):
            import_archive(archive, str(target))
        assert not target.exists(), case
    import_archive(good, str(tmp_path / "unpacked" / "good"))
    assert (tmp_path / "unpacked" / "good" / "verifying_Token_buy_ext.key"
            ).read_bytes() == genuine

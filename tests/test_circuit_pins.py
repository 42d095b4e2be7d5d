"""Pins on the circuits themselves: the bytes of a hybrid-encryption
constraint system, the verifying keys of the whole corpus, and which gadget
each constraint is counted under."""
import collections
import hashlib

from veil.compiler import BuildSettings, compile_source

from conftest import load_source

# one SHA-256 compression in the circuit, in constraints
SHA256_COMPRESSION = 35288


def test_hybrid_buy_circuit_bytes_pinned(hybrid_token):
    cs_bytes = hybrid_token.keys["Token_buy_ext"].prover.cs_bytes
    assert hashlib.sha256(cs_bytes).hexdigest() == \
        "372a5819e7a448265bfaa248a3676dff5a5553b2cb388b66eb4c628634c540f9"


def test_default_hybrid_buy_circuit_bytes_pinned():
    # default settings hash the public inputs: nine compressions, whose IV
    # and padding constants take the bit gate's generic path
    art = compile_source(load_source("token"),
                         BuildSettings(crypto_backend="dh-arx"))
    cs_bytes = art.keys["Token_buy_ext"].prover.cs_bytes
    assert hashlib.sha256(cs_bytes).hexdigest() == \
        "1563b4f970479a9773ac5776eacb353cd130229d4c6e68c0d0421f001135d7b4"


def test_corpus_verifying_keys_pinned(artifacts):
    triples = sorted((contract, circuit, keys.verifier.digest.hex())
                     for contract, art in artifacts.items()
                     for circuit, keys in art.keys.items())
    text = "".join(f"{c}/{name}/{vk}\n" for c, name, vk in triples)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "55d71949cb23dfde8664baea74dd99223d20e6d4de6e7d8782c12beac94ef040"


def test_hybrid_buy_tags_split_sha_from_arx(hybrid_token):
    cs = hybrid_token.lowered["Token_buy_ext"].cs
    by_prefix = collections.Counter(tag.split(".")[0] for tag in cs.tags)
    # without input hashing only the two shared-key derivations run SHA-256;
    # the ARX cipher's gates count as arx
    assert by_prefix["sha"] == 2 * SHA256_COMPRESSION
    assert by_prefix["arx"] == 18817
    assert len(cs.tags) == len(cs.constraints) == 93171

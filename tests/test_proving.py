import os
import random

import pytest

from veil.compiler import BuildSettings, compile_source
from veil.field import DEFAULT_FIELD
from veil.proving import (KeyCache, ProvingError, TransparentProof,
                          VerifierKey, keygen, prove, verify)

from conftest import load_source


@pytest.fixture(scope="module")
def token_build():
    artifact = compile_source(load_source("token"), BuildSettings())
    entry = artifact.tc.entries["buy"]
    return artifact, artifact.lowered[entry.root_circuit], \
        artifact.keys[entry.root_circuit]


def _honest_values(artifact, rng=None):
    """A satisfying (in, out, priv) triple for the token buy circuit."""
    from veil.chain import MockChain
    from veil import runtime
    import tempfile
    rng = rng or random.Random(0)
    chain = MockChain(artifact.field)
    acct = chain.create_account("a")
    with tempfile.TemporaryDirectory() as dd:
        addr, _ = runtime.deploy(artifact, chain, acct, [], data_dir=dd, rng=rng)
        iface = runtime.connect(artifact, chain, addr, acct, data_dir=dd, rng=rng)
        iface.call("register", [])
        tx = iface.simulate_call("buy", [55])
        in_array = [w % artifact.field.p for w in tx.proof.witness[1:]]  # unused
        entry = artifact.tc.entries["buy"]
        lowered = artifact.lowered[entry.root_circuit]
        ins = [tx.proof.witness[w] for w in lowered.in_wires]
        outs = list(tx.out)
        return ins, outs, tx.proof


def test_keygen_deterministic(token_build):
    artifact, lowered, _ = token_build
    k1, k2 = keygen(lowered), keygen(lowered)
    assert k1.prover.serialize() == k2.prover.serialize()
    assert k1.verifier.serialize() == k2.verifier.serialize()


def test_keygen_digest_sensitivity(token_build):
    artifact, lowered, keys = token_build
    import copy
    other = copy.deepcopy(lowered)
    a, b, c = other.cs.constraints[0]
    other.cs.constraints[0] = (tuple((i, (v + 1) % DEFAULT_FIELD.p) for i, v in a), b, c)
    assert keygen(other).verifier.digest != keys.verifier.digest


def test_key_cache_reuse(tmp_path, token_build):
    artifact, lowered, _ = token_build
    cache = KeyCache(str(tmp_path))
    k1 = cache.get_or_generate("c1", lowered)
    assert (cache.generated, cache.reused) == (1, 0)
    k2 = cache.get_or_generate("c1", lowered)
    assert (cache.generated, cache.reused) == (1, 1)
    assert k1.prover.serialize() == k2.prover.serialize()
    pk_path, vk_path = cache.paths("c1")
    assert os.path.exists(pk_path) and os.path.exists(vk_path)


def test_prove_verify_round_trip(token_build):
    artifact, lowered, keys = token_build
    ins, outs, proof = _honest_values(artifact)
    assert verify(keys.verifier, lowered, ins, outs, proof)


def test_verify_rejects_every_public_slot_mutation(token_build):
    artifact, lowered, keys = token_build
    ins, outs, proof = _honest_values(artifact)
    p = artifact.field.p
    for i in range(len(ins)):
        bad = list(ins)
        bad[i] = (bad[i] + 1) % p
        assert not verify(keys.verifier, lowered, bad, outs, proof), f"in[{i}]"
    for i in range(len(outs)):
        bad = list(outs)
        bad[i] = (bad[i] + 1) % p
        assert not verify(keys.verifier, lowered, ins, bad, proof), f"out[{i}]"


def test_verify_rejects_digest_mismatch(token_build):
    artifact, lowered, keys = token_build
    ins, outs, proof = _honest_values(artifact)
    tampered = TransparentProof(bytes([proof.digest[0] ^ 1]) + proof.digest[1:],
                                proof.witness)
    assert not verify(keys.verifier, lowered, ins, outs, tampered)


def test_verify_rejects_witness_tampering(token_build):
    artifact, lowered, keys = token_build
    ins, outs, proof = _honest_values(artifact)
    w = list(proof.witness)
    w[len(w) // 2] = (w[len(w) // 2] + 1) % artifact.field.p
    assert not verify(keys.verifier, lowered, ins, outs,
                      TransparentProof(proof.digest, w))


def test_prove_unsatisfiable_names_constraint(token_build):
    artifact, lowered, keys = token_build
    entry = artifact.tc.entries["buy"]
    ins = [1] * lowered.in_total  # junk ciphers break the dec constraint
    outs = [0] * lowered.out_total
    with pytest.raises(ProvingError) as err:
        prove(lowered, keys, ins, outs, {})
    assert "constraint" in str(err.value)


def test_proof_serialization_round_trip(token_build):
    artifact, lowered, keys = token_build
    ins, outs, proof = _honest_values(artifact)
    back = TransparentProof.deserialize(proof.serialize())
    assert back.digest == proof.digest and back.witness == proof.witness
    vk = VerifierKey.deserialize(keys.verifier.serialize())
    assert verify(vk, lowered, ins, outs, back)


def test_hashing_mode_prove_verify():
    artifact = compile_source(load_source("token"),
                              BuildSettings(hash_threshold=0))
    entry = artifact.tc.entries["buy"]
    lowered = artifact.lowered[entry.root_circuit]
    keys = artifact.keys[entry.root_circuit]
    assert lowered.hashing_active
    assert keys.verifier.hash_compressions == \
        (lowered.in_total + lowered.out_total) // 2 + 1
    ins, outs, proof = _honest_values(artifact)
    assert lowered.cs.n_public == 2  # constant wire + digest
    assert verify(keys.verifier, lowered, ins, outs, proof)
    bad = list(ins)
    bad[0] = (bad[0] + 1) % artifact.field.p
    assert not verify(keys.verifier, lowered, bad, outs, proof)


def test_verify_accepts_only_exact_int_witnesses():
    """Floats and bools satisfy the booleanity constraint b·b = b under
    Python arithmetic -- 1.0, True, and on t64 even float(p) -- but a
    witness is a list of exact ints."""
    from types import SimpleNamespace
    from veil.field import field_by_name
    from veil.r1cs import ConstraintSystem
    field = field_by_name("t64")
    t = ((1, 1),)
    lowered = SimpleNamespace(cs=ConstraintSystem(field, 2, 1, [(t, t, t)],
                                                  ["bit"]))
    vk = VerifierKey(b"d" * 32, 0, 0, False, "concat", 0, field.name)

    def accepted(w):
        return verify(vk, lowered, [], [], TransparentProof(b"d" * 32, w))

    assert accepted([1, 1]) and accepted([1, 0]) and accepted([1, field.p + 1])
    for w in ([1, 1.0], [1, float(field.p)], [1, 2.0 ** 300], [1, True],
              [True, 1], [1.0, 0]):
        assert not accepted(w), w

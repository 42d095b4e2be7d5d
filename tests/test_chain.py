import copy
import hashlib
import random
from dataclasses import replace

import pytest

from veil.chain import (ChainError, GAS_PER_COMPRESSION, GAS_PER_SLOT,
                        GAS_PER_VERIFICATION, MockChain)
from veil.compiler import BuildSettings, compile_source, load_artifact
from veil.field import DEFAULT_FIELD
from veil.interpreter import RequireException
from veil.proving import TransparentKeys, TransparentProof
from veil.r1cs import ConstraintSystem
from veil import r1cs, runtime

from conftest import load_source


def test_account_creation_deterministic():
    c1, c2 = MockChain(DEFAULT_FIELD), MockChain(DEFAULT_FIELD)
    assert c1.create_account("alice") == c2.create_account("alice")
    assert c1.create_account("alice") != c1.create_account("bob")
    addr = c1.create_account("alice")
    assert addr < 1 << 160


def test_pki_announce_and_get():
    chain = MockChain(DEFAULT_FIELD)
    a = chain.create_account("a")
    chain.deploy_pki("dummy", "pki text")
    chain.pki_announce("dummy", a, 12345)
    assert chain.pki_get("dummy", a) == 12345


def test_pki_get_before_announce_reverts():
    chain = MockChain(DEFAULT_FIELD)
    a = chain.create_account("a")
    with pytest.raises(RequireException):
        chain.pki_get("dummy", a)


def test_pki_double_announce_rejected():
    chain = MockChain(DEFAULT_FIELD)
    a = chain.create_account("a")
    chain.pki_announce("dummy", a, 1)
    with pytest.raises(ChainError):
        chain.pki_announce("dummy", a, 2)


def test_pki_independent_per_backend():
    chain = MockChain(DEFAULT_FIELD)
    a = chain.create_account("a")
    chain.pki_announce("dummy", a, 1)
    chain.pki_announce("dh-arx", a, 2)
    assert chain.pki_get("dummy", a) == 1
    assert chain.pki_get("dh-arx", a) == 2


@pytest.fixture(scope="module")
def token_artifact():
    return compile_source(load_source("token"), BuildSettings())


def deploy_token(token_artifact, tmp_path, seed=0):
    chain = MockChain(token_artifact.field)
    alice = chain.create_account("alice")
    addr, receipt = runtime.deploy(token_artifact, chain, alice, [],
                                   data_dir=str(tmp_path / "d"),
                                   rng=random.Random(seed))
    assert receipt.success
    return chain, alice, addr


def test_deploy_distinct_addresses_same_digest(token_artifact, tmp_path):
    chain = MockChain(token_artifact.field)
    alice = chain.create_account("alice")
    dd = str(tmp_path / "d")
    a1, _ = runtime.deploy(token_artifact, chain, alice, [], data_dir=dd)
    a2, _ = runtime.deploy(token_artifact, chain, alice, [], data_dir=dd)
    assert a1 != a2
    assert chain.contracts[a1].digest == chain.contracts[a2].digest


def test_reverting_constructor_deploys_nothing(tmp_path):
    from veil.source import SourceFile
    artifact = compile_source(SourceFile("r.zkay", """
    contract C {
        constructor() { require(false); }
    }"""), BuildSettings())
    chain = MockChain(artifact.field)
    alice = chain.create_account("alice")
    n_before = len(chain.contracts)
    addr, receipt = runtime.deploy(artifact, chain, alice, [],
                                   data_dir=str(tmp_path / "d"))
    assert not receipt.success
    assert addr == 0
    # only the PKI contract remains
    assert len(chain.contracts) == n_before + 1


def test_atomicity_on_revert(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    iface = runtime.connect(token_artifact, chain, addr, alice,
                            data_dir=str(tmp_path / "d"), rng=random.Random(1))
    iface.call("register", [])
    iface.call("buy", [10])
    snapshot = copy.deepcopy(chain.to_json())
    # a transaction with a valid proof but tampered out -> revert, no diff
    tx = iface.simulate_call("buy", [5])
    bad_out = [(tx.out[0] + 1) % token_artifact.field.p] + tx.out[1:]
    receipt = chain.transact(addr, "buy", tx.args, alice, 0, bad_out, tx.proof,
                             token_artifact)
    assert not receipt.success and receipt.exit_kind == "verification"
    after = chain.to_json()
    assert after["contracts"] == snapshot["contracts"]
    assert after["accounts"] == snapshot["accounts"]


def test_replay_determinism(token_artifact, tmp_path):
    def run(seed):
        chain, alice, addr = deploy_token(token_artifact, tmp_path, seed=7)
        iface = runtime.connect(token_artifact, chain, addr, alice,
                                data_dir=str(tmp_path / "d"),
                                rng=random.Random(7))
        iface.call("register", [])
        iface.call("buy", [10])
        iface.call("buy", [20])
        return chain.digest()

    assert run(0) == run(1)


def test_persistence_round_trip(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    iface = runtime.connect(token_artifact, chain, addr, alice,
                            data_dir=str(tmp_path / "d"), rng=random.Random(2))
    iface.call("register", [])
    iface.call("buy", [77])
    path = str(tmp_path / "chain.json")
    chain.save(path)
    loaded = MockChain.load(path, token_artifact.field)
    assert loaded.digest() == chain.digest()
    iface2 = runtime.connect(token_artifact, loaded, addr, alice,
                             data_dir=str(tmp_path / "d"), rng=random.Random(3))
    assert iface2.state("balance", (alice,)) == 77


def test_gas_proxy_formula(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    iface = runtime.connect(token_artifact, chain, addr, alice,
                            data_dir=str(tmp_path / "d"), rng=random.Random(4))
    iface.call("register", [])
    receipt = iface.call("buy", [5])
    entry = token_artifact.tc.entries["buy"]
    vk = token_artifact.keys[entry.root_circuit].verifier
    slots = 1 if vk.hashing_active else vk.n_in + vk.n_out
    expected = (GAS_PER_SLOT * slots + GAS_PER_COMPRESSION * vk.hash_compressions
                + GAS_PER_VERIFICATION)
    assert receipt.gas_proxy == expected


def test_gas_proxy_monotonic_in_slots():
    """One more public circuit slot never decreases the gas proxy."""
    from veil.source import SourceFile

    def gas_for(n_extra):
        body = "".join(f"s{i} = v + {i};\n" for i in range(n_extra))
        decls = "".join(f"uint32@me s{i};\n" for i in range(n_extra))
        text = f"""
        contract C {{
            {decls}
            uint32@me base;
            function f(uint32 v) public {{
                base = v;
                {body}
            }}
        }}"""
        artifact = compile_source(SourceFile("g.zkay", text),
                                  BuildSettings(hash_threshold=6))
        entry = artifact.tc.entries["f"]
        vk = artifact.keys[entry.root_circuit].verifier
        slots = 1 if vk.hashing_active else vk.n_in + vk.n_out
        return (GAS_PER_SLOT * slots + GAS_PER_COMPRESSION * vk.hash_compressions
                + GAS_PER_VERIFICATION)

    costs = [gas_for(n) for n in range(4)]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_balances_and_transfer(tmp_path):
    artifact = compile_source(load_source("payable"), BuildSettings())
    chain = MockChain(artifact.field)
    alice = chain.create_account("alice", balance=1000)
    dd = str(tmp_path / "d")
    addr, _ = runtime.deploy(artifact, chain, alice, [], data_dir=dd)
    iface = runtime.connect(artifact, chain, addr, alice, data_dir=dd)
    assert iface.call("put", [], value=300).success
    assert chain.balance_of(alice) == 700
    assert chain.balance_of(addr) == 300
    assert iface.call("take", [120]).success
    assert chain.balance_of(alice) == 820
    assert chain.balance_of(addr) == 180
    # underflow reverts atomically
    r = iface.call("take", [999])
    assert not r.success
    assert chain.balance_of(alice) == 820


def test_value_to_nonpayable_reverts(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    receipt = chain.transact(addr, "register", [], alice, 5, [], None,
                             token_artifact)
    assert not receipt.success
    assert "payable" in receipt.revert_reason


def test_artifact_digest_checked(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    other = compile_source(load_source("reveal"), BuildSettings())
    with pytest.raises(ChainError):
        chain.transact(addr, "open", [], alice, 0, [], None, other)


def test_timestamp_and_block_advance(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    b0, t0 = chain.block_number, chain.timestamp
    chain.transact(addr, "register", [], alice, 0, [], None, token_artifact)
    assert chain.block_number == b0 + 1
    assert chain.timestamp == t0 + chain.timestamp_delta


class _NoDeepcopy(dict):
    def __deepcopy__(self, memo):
        raise AssertionError("contract storage was deep-copied")


def test_transactions_never_copy_storage(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    iface = runtime.connect(token_artifact, chain, addr, alice,
                            data_dir=str(tmp_path / "d"), rng=random.Random(1))
    assert iface.call("register", []).success
    assert iface.call("buy", [10]).success
    storage = chain.storage_of(addr)
    storage["balance"] = _NoDeepcopy(storage["balance"])
    assert iface.call("buy", [5]).success
    assert iface.state("balance", (alice,)) == 15
    tx = iface.simulate_call("buy", [1])
    bad_out = [(tx.out[0] + 1) % token_artifact.field.p] + tx.out[1:]
    receipt = chain.transact(addr, "buy", tx.args, alice, 0, bad_out, tx.proof,
                             token_artifact)
    assert not receipt.success and receipt.exit_kind == "verification"
    assert iface.state("balance", (alice,)) == 15


def test_revert_removes_created_mapping_entries(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    iface = runtime.connect(token_artifact, chain, addr, alice,
                            data_dir=str(tmp_path / "d"), rng=random.Random(1))
    assert iface.call("register", []).success
    before = copy.deepcopy(chain.to_json())
    # the first buy creates the `balance` mapping and its entry for alice
    tx = iface.simulate_call("buy", [5])
    assert chain.to_json() == before
    bad_out = [(tx.out[0] + 1) % token_artifact.field.p] + tx.out[1:]
    receipt = chain.transact(addr, "buy", tx.args, alice, 0, bad_out, tx.proof,
                             token_artifact)
    assert not receipt.success and receipt.exit_kind == "verification"
    before["block_number"] += 1
    before["timestamp"] += chain.timestamp_delta
    assert chain.to_json() == before
    assert "balance" not in chain.storage_of(addr)


def test_save_replaces_the_chain_file_atomically(token_artifact, tmp_path,
                                                 monkeypatch):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    path = tmp_path / "chain.json"
    chain.save(str(path))
    saved = path.read_bytes()
    assert b"\n" not in saved
    chain.create_account("bob")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    with pytest.raises(OSError):
        chain.save(str(path))
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["chain.json"]


# --- the chain verifies against circuits it checked itself -----------------


def _forge(artifact, circuit, lowered, vk):
    """`artifact` with the circuit and verifying key of `circuit` replaced;
    its contract text, and so its content digest, is unchanged."""
    keys = artifact.keys[circuit]
    return replace(artifact,
                   lowered={**artifact.lowered, circuit: lowered},
                   keys={**artifact.keys,
                         circuit: TransparentKeys(keys.prover, vk)})


def _forged_buys(artifact, iface):
    """A `buy` under a forged circuit (an empty system with the genuine
    public prefix and a key for it) with garbage `out`, and a genuine `buy`
    under a key whose digest is altered: (artifact, out, proof) each."""
    circuit = artifact.tc.entries["buy"].root_circuit
    lowered, vk = artifact.lowered[circuit], artifact.keys[circuit].verifier
    assert not vk.hashing_active
    p = artifact.field.p
    tx = iface.simulate_call("buy", [5])
    ins = [tx.proof.witness[i] for i in lowered.in_wires]
    garbage = [(v + 12345) % p for v in tx.out]
    n_public = lowered.cs.n_public
    empty = ConstraintSystem(artifact.field, n_vars=n_public, n_public=n_public)
    digest = hashlib.sha256(empty.serialize()).digest()
    forged_circuit = _forge(artifact, circuit, replace(lowered, cs=empty),
                            replace(vk, digest=digest))
    forged_proof = TransparentProof(digest, [1] + ins + garbage)
    altered = bytes([vk.digest[0] ^ 1]) + vk.digest[1:]
    forged_key = _forge(artifact, circuit, lowered, replace(vk, digest=altered))
    altered_proof = TransparentProof(altered, tx.proof.witness)
    return tx.args, [(forged_circuit, garbage, forged_proof),
                     (forged_key, tx.out, altered_proof)]


@pytest.mark.parametrize("registry", ["fresh", "loaded", "populated"])
def test_forged_circuit_or_key_reverts(token_artifact, tmp_path, registry):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    dd = str(tmp_path / "d")
    iface = runtime.connect(token_artifact, chain, addr, alice, data_dir=dd,
                            rng=random.Random(5))
    assert iface.call("register", []).success
    if registry == "loaded":
        path = str(tmp_path / "chain.json")
        chain.save(path)
        chain = MockChain.load(path, token_artifact.field)
        iface = runtime.connect(token_artifact, chain, addr, alice, data_dir=dd,
                                rng=random.Random(6))
    if registry == "populated":
        assert iface.call("buy", [1]).success
    args, forgeries = _forged_buys(token_artifact, iface)
    for artifact, out, proof in forgeries:
        before = chain.state_digest()
        receipt = chain.transact(addr, "buy", args, alice, 0, out, proof,
                                 artifact)
        assert not receipt.success and receipt.exit_kind == "verification"
        assert chain.state_digest() == before
    # nothing forged was registered: a genuine buy still verifies
    assert iface.call("buy", [2]).success
    assert iface.state("balance", (alice,)) == (3 if registry == "populated" else 2)


def test_chain_serializes_each_circuit_once(token_artifact, tmp_path,
                                            monkeypatch):
    calls = []
    original = ConstraintSystem.serialize

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ConstraintSystem, "serialize", counting)
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    dd = str(tmp_path / "d")
    iface = runtime.connect(token_artifact, chain, addr, alice, data_dir=dd,
                            rng=random.Random(7))
    assert iface.call("register", []).success
    assert iface.call("buy", [1]).success
    assert len(calls) == len(token_artifact.keys)
    calls.clear()
    for amount in range(2, 6):
        assert iface.call("buy", [amount]).success
    assert calls == []
    path = str(tmp_path / "chain.json")
    chain.save(path)
    loaded = MockChain.load(path, token_artifact.field)
    iface = runtime.connect(token_artifact, loaded, addr, alice, data_dir=dd,
                            rng=random.Random(8))
    assert calls == []
    assert iface.call("buy", [6]).success
    assert len(calls) == len(token_artifact.keys)


def test_check_plans_made_once_per_holder(tmp_path, monkeypatch):
    """Compiling and loading classify nothing; the prover classifies each
    circuit on its first proof and the chain on registering it, once per
    chain instance, however many transactions follow."""
    made = []
    original = r1cs.classify

    def counting(constraints, p):
        made.append(type(constraints))  # the prover's list, the chain's tuple
        return original(constraints, p)

    monkeypatch.setattr(r1cs, "classify", counting)
    build = str(tmp_path / "build")
    artifact = compile_source(load_source("token"), BuildSettings(),
                              output_dir=build)
    loaded = load_artifact(build)
    assert made == []
    assert all(low.cs.plan is None for a in (artifact, loaded)
               for low in a.lowered.values())
    chain, alice, addr = deploy_token(artifact, tmp_path)
    dd = str(tmp_path / "d")
    iface = runtime.connect(artifact, chain, addr, alice, data_dir=dd,
                            rng=random.Random(7))
    assert iface.call("register", []).success
    assert iface.call("buy", [1]).success
    n = len(artifact.keys)
    assert sorted(made, key=str) == [list] * n + [tuple] * n
    made.clear()
    for amount in range(2, 5):
        assert iface.call("buy", [amount]).success
    assert made == []
    path = str(tmp_path / "chain.json")
    chain.save(path)
    reloaded = MockChain.load(path, artifact.field)
    iface = runtime.connect(artifact, reloaded, addr, alice, data_dir=dd,
                            rng=random.Random(8))
    assert iface.call("buy", [5]).success
    assert iface.call("buy", [6]).success
    assert made == [tuple] * n


def _registered_buy(token_artifact, tmp_path):
    chain, alice, addr = deploy_token(token_artifact, tmp_path)
    iface = runtime.connect(token_artifact, chain, addr, alice,
                            data_dir=str(tmp_path / "d"), rng=random.Random(4))
    assert iface.call("register", []).success
    return chain, alice, addr, iface.simulate_call("buy", [7])


def test_exception_in_transaction_leaves_no_write(token_artifact, tmp_path):
    """`out[0] = None` raises only after the balance write; the chain must
    undo it before the exception leaves `transact`."""
    chain, alice, addr, tx = _registered_buy(token_artifact, tmp_path)
    before = chain.state_digest()
    with pytest.raises(TypeError):
        chain.transact(addr, "buy", tx.args, alice, 0, [None] + tx.out[1:],
                       tx.proof, token_artifact)
    assert chain.state_digest() == before


@pytest.mark.parametrize("entry", [None, True, 1.0])
def test_witness_of_inexact_ints_reverts(token_artifact, tmp_path, entry):
    """A witness entry that is not an exact int -- None at every private
    wire, or True or 1.0 in place of one honest 1 -- reverts as
    `verification` and leaves the state as it was."""
    chain, alice, addr, tx = _registered_buy(token_artifact, tmp_path)
    circuit = token_artifact.tc.entries["buy"].root_circuit
    n_public = token_artifact.lowered[circuit].cs.n_public
    w = list(tx.proof.witness)
    if entry is None:
        w[n_public:] = [None] * (len(w) - n_public)
    else:
        w[w.index(1, n_public)] = entry
    before = chain.state_digest()
    receipt = chain.transact(addr, "buy", tx.args, alice, 0, tx.out,
                             TransparentProof(tx.proof.digest, w),
                             token_artifact)
    assert not receipt.success and receipt.exit_kind == "verification"
    assert chain.state_digest() == before


def test_circuit_that_could_change_after_registration_reverts(token_artifact,
                                                              tmp_path):
    """The genuine constraints held in lists, or with a float coefficient
    equal to an int one, serialize to the key's digest; the chain must not
    seal either, since lists can be emptied later and float arithmetic is
    inexact."""
    circuit = token_artifact.tc.entries["buy"].root_circuit
    lowered = token_artifact.lowered[circuit]
    genuine = lowered.cs.constraints
    as_lists = [tuple(list(lc) for lc in abc) for abc in genuine]
    i, k = next((i, k) for i, abc in enumerate(genuine) if i > 0
                for k, lc in enumerate(abc) if lc and lc[0][1] == 1)
    with_float = list(genuine)
    lcs = list(with_float[i])
    lcs[k] = ((lcs[k][0][0], 1.0),) + lcs[k][1:]
    with_float[i] = tuple(lcs)
    for constraints in (as_lists, with_float):
        cs = replace(lowered.cs, constraints=constraints)
        assert cs.serialize() == lowered.cs.serialize()
        chain, alice, addr = deploy_token(token_artifact, tmp_path)
        forged = _forge(token_artifact, circuit, replace(lowered, cs=cs),
                        token_artifact.keys[circuit].verifier)
        iface = runtime.connect(forged, chain, addr, alice,
                                data_dir=str(tmp_path / "d"),
                                rng=random.Random(9))
        assert iface.call("register", []).success
        before = chain.state_digest()
        receipt = iface.call("buy", [1])
        assert not receipt.success and receipt.exit_kind == "verification"
        assert chain.state_digest() == before

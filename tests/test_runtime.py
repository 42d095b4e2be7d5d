import random

import pytest

from veil.compiler import BuildSettings, compile_source
from veil.crypto import is_zero_cipher
from veil import runtime

from conftest import load_source


def test_token_flow(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    alice, bob = w.iface(0), w.iface(1)
    assert alice.call("register", []).success
    assert alice.call("buy", [100]).success
    assert alice.call("buy", [42]).success
    assert alice.state("balance", (w.accounts[0],)) == 142
    # unregistered caller fails the require locally and never submits
    r = bob.call("buy", [5])
    assert not r.success and r.exit_kind == "require"
    assert bob.state("balance", (w.accounts[1],)) == 0
    # foreign entries stay ciphertext
    foreign = bob.state("balance", (w.accounts[0],))
    assert isinstance(foreign, tuple) and not is_zero_cipher(foreign)


def test_reveal_flow(world_factory, artifacts):
    w = world_factory(artifacts["reveal"])
    iface = w.iface(0)
    assert iface.call("put", [33]).success
    stored = w.chain.storage_of(w.address)["stash"]
    assert isinstance(stored, tuple) and not is_zero_cipher(stored)
    assert iface.call("open", []).success
    assert iface.state("total") == 33


def test_private_if_flow(world_factory, artifacts):
    w = world_factory(artifacts["privif"])
    iface = w.iface(0)
    assert iface.call("bump", [10, 1]).success
    assert iface.state("level") == 10
    assert iface.call("bump", [999, 0]).success
    assert iface.state("level") == 11
    # the assigned set is re-written even when the plaintext is unchanged
    r = iface.call("drain", [])  # level=11 <= 100: else-path
    assert r.success and "level" not in r.state_diff or r.success
    assert iface.state("level") == 11


def test_private_if_reencrypts_fresh_ciphers(world_factory):
    # randomized encryption shows the fresh ciphertexts directly
    artifact = compile_source(load_source("privif"),
                              BuildSettings(crypto_backend="dh-arx",
                                            hash_threshold=999))
    w = world_factory(artifact)
    iface = w.iface(0)
    assert iface.call("bump", [10, 1]).success
    c1 = w.chain.storage_of(w.address)["level"]
    assert iface.call("drain", []).success  # plaintext unchanged (10 <= 100)
    c2 = w.chain.storage_of(w.address)["level"]
    assert c1 != c2
    assert iface.state("level") == 10


def test_nested_call_flow(world_factory, artifacts):
    w = world_factory(artifacts["nested"])
    iface = w.iface(0)
    r = iface.call("f", [5])
    assert r.success
    assert iface.state("acc") == 8  # 5 + 2 (h) + 1 (p)
    # exactly one proof and one verifier invocation per external call
    assert iface.last_tx.proof is not None
    assert r.gas_proxy and r.gas_proxy < 2 * 40000


def test_zero_init_flow(world_factory, artifacts):
    w = world_factory(artifacts["zeroinit"])
    iface = w.iface(0)
    assert iface.state("counter") == 0  # uninitialized: all-zero cipher
    assert is_zero_cipher(w.chain.storage_of(w.address).get("counter", (0,)) or (0,))
    assert iface.call("show", []).success  # dec(0) proves plaintext 0
    assert iface.state("shown") == 0
    assert iface.call("touch", []).success
    assert iface.state("counter") == 1
    assert iface.call("show", []).success
    assert iface.state("shown") == 1


def test_short_circuit_flow(world_factory, artifacts):
    w = world_factory(artifacts["shortcircuit"])
    iface = w.iface(0)
    # b = false: priv() runs, its constraint is active
    assert iface.call("test", [0]).success
    assert iface.state("v") == 2
    assert iface.state("result") == 1
    # b = true: priv() skipped; callee constraints inactive
    assert iface.call("test", [1]).success
    assert iface.state("result") == 1


def test_short_circuit_inactive_constraint_tolerates_garbage(world_factory, artifacts):
    w = world_factory(artifacts["shortcircuit"])
    iface = w.iface(0)
    tx = iface.simulate_call("test", [1])
    entry = iface.artifact.tc.entries["test"]
    lowered = iface.artifact.lowered[entry.root_circuit]
    keys = iface.artifact.keys[entry.root_circuit]
    # the callee's out cipher slots sit in its section; garbage there still
    # verifies because the guard is inactive when b is true
    section = entry.layout.sections[-1]
    garbage_out = list(tx.out)
    changed = False
    for i in range(section.out_offset, section.out_offset + section.out_length):
        garbage_out[i] = (garbage_out[i] + 123) % iface.artifact.field.p
        changed = True
    assert changed
    from veil.proving import prove
    witness = dict(tx.witness_log) if tx.witness_log else {}
    receipt = w.chain.transact(w.address, "test", tx.args, w.accounts[0], 0,
                               garbage_out, None, iface.artifact)
    assert not receipt.success  # without a matching proof it must fail
    # but a re-proved witness over the garbage outs succeeds
    sim_tx = iface.simulate_call("test", [1])
    in_vals = [sim_tx.proof.witness[wi] for wi in lowered.in_wires]
    new_proof = prove(lowered, keys, in_vals, garbage_out,
                      _collect_priv(lowered, sim_tx.proof))
    receipt = w.chain.transact(w.address, "test", tx.args, w.accounts[0], 0,
                               garbage_out, new_proof, iface.artifact)
    assert receipt.success


def _collect_priv(lowered, proof):
    values = {}
    for name, (first, count) in lowered.priv_wires.items():
        if count == 1:
            values[name] = proof.witness[first]
        else:
            values[name] = tuple(proof.witness[first + i] for i in range(count))
    return values


def test_public_if_flow(world_factory, artifacts):
    w = world_factory(artifacts["publicif"])
    iface = w.iface(0)
    assert iface.call("set", [2]).success   # branch taken: o = 3 then o += 1
    assert iface.state("o") == 4
    assert iface.call("set", [7]).success   # branch skipped: o += 1
    assert iface.state("o") == 5


def test_features_contract(world_factory, artifacts):
    w = world_factory(artifacts["features"], ctor_args=(10,))
    iface = w.iface(0)
    r = iface.call("twirl", [5, -3])
    assert r.success, r.revert_reason
    assert iface.state("signedStash") == ((-1) & 0xFFFFFFFFFFFFFFFF)
    assert iface.call("modeName", [2]).success


def test_interpreter_matches_on_widths(world_factory):
    from veil.source import SourceFile
    artifact = compile_source(SourceFile("w.zkay", """
    contract W {
        uint8 narrow;
        int8@me tight;
        function f() public {
            narrow = uint8(200) + uint8(100);
            tight = int8(100) + int8(100);
        }
    }"""), BuildSettings())
    w = world_factory(artifact)
    iface = w.iface(0)
    assert iface.call("f", []).success
    assert iface.state("narrow") == 44  # 300 mod 256
    assert iface.state("tight") == 200  # -56 in two's complement


def test_state_cache_coherence(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    iface = w.iface(0)
    iface.call("register", [])
    iface.call("buy", [10])
    tx1 = iface.simulate_call("buy", [7])
    # clearing the cache mid-simulation path: a fresh simulation re-fetching
    # everything produces identical public inputs
    iface2 = runtime.connect(iface.artifact, w.chain, w.address, w.accounts[0],
                             data_dir=w.data_dir, rng=random.Random(99))
    tx2 = iface2.simulate_call("buy", [7])
    entry = iface.artifact.tc.entries["buy"]
    lowered = iface.artifact.lowered[entry.root_circuit]
    ins1 = [tx1.proof.witness[i] for i in lowered.in_wires]
    ins2 = [tx2.proof.witness[i] for i in lowered.in_wires]
    assert ins1 == ins2


def test_scoped_locals_unreadable_after_block():
    from veil.parser import parse
    from veil.analysis import analyze
    from veil.source import SourceFile, CompileError
    src = SourceFile("s.zkay", """
    contract S {
        function f() public {
            if (true) { uint x = 1; }
            uint y = x;
        }
    }""")
    with pytest.raises(CompileError) as err:
        analyze(src, parse(src))
    assert "unknown identifier 'x'" in str(err.value)


# --- integrity ------------------------------------------------------------------


def test_connect_to_untampered_deployment(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    iface = runtime.connect(artifacts["token"], w.chain, w.address,
                            w.accounts[1], data_dir=w.data_dir)
    assert iface.address == w.address


def tamper_hex(digest: str, pos: int = 0) -> str:
    c = digest[pos]
    repl = "0" if c != "0" else "1"
    return digest[:pos] + repl + digest[pos + 1:]


def test_connect_fails_after_main_digest_tamper(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    record = w.chain.contracts[w.address]
    record.instance_digest = tamper_hex(record.instance_digest)
    with pytest.raises(runtime.IntegrityError) as err:
        runtime.connect(artifacts["token"], w.chain, w.address, w.accounts[0],
                        data_dir=w.data_dir)
    assert "main contract" in err.value.mismatch


def test_connect_fails_after_verifier_tamper(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    record = w.chain.contracts[w.address]
    vaddr = next(iter(record.links["verifiers"].values()))
    w.chain.contracts[vaddr].digest = tamper_hex(w.chain.contracts[vaddr].digest)
    with pytest.raises(runtime.IntegrityError) as err:
        runtime.connect(artifacts["token"], w.chain, w.address, w.accounts[0],
                        data_dir=w.data_dir)
    assert "verifier" in err.value.mismatch


def test_connect_fails_after_pki_tamper(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    record = w.chain.contracts[w.address]
    pki = w.chain.contracts[record.links["pki"]]
    pki.digest = tamper_hex(pki.digest)
    with pytest.raises(runtime.IntegrityError) as err:
        runtime.connect(artifacts["token"], w.chain, w.address, w.accounts[0],
                        data_dir=w.data_dir)
    assert "PKI" in err.value.mismatch


def test_connect_fails_with_different_settings(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    other = compile_source(load_source("token"),
                           BuildSettings(hash_threshold=0))
    with pytest.raises(runtime.IntegrityError):
        runtime.connect(other, w.chain, w.address, w.accounts[0],
                        data_dir=w.data_dir)


# --- repl -----------------------------------------------------------------------


def run_repl(iface, commands):
    lines = iter(commands)
    out = []
    runtime.repl(iface, input_fn=lambda _: next(lines), output_fn=out.append)
    return "\n".join(out)


def test_repl_session(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    out = run_repl(w.iface(0), [
        "help",
        "call register()",
        "call buy(25)",
        "state balance[me]",
        "state registered[me]",
        "balance",
        "call buy(bogus)",
        "unknown-command",
        "exit",
    ])
    assert "commands:" in out
    assert "gas_proxy" in out
    assert "balance[me] = 25" in out
    assert "registered[me] = 1" in out
    assert "error:" in out  # bad literal reported, session continues
    assert "unknown command" in out


def test_repl_require_failure_keeps_session(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    out = run_repl(w.iface(1), ["call buy(5)", "exit"])
    assert "reverted (require)" in out or "require failed" in out


def test_repl_foreign_cipher_display(world_factory, artifacts):
    w = world_factory(artifacts["token"])
    alice, bob = w.iface(0), w.iface(1)
    alice.call("register", [])
    alice.call("buy", [9])
    out = run_repl(bob, [f"state balance[{w.accounts[0]:#x}]", "exit"])
    assert "cipher" in out


def test_trace_writes_witness_log(world_factory, artifacts, capsys):
    w = world_factory(artifacts["reveal"])
    iface = runtime.ContractInterface(artifacts["reveal"], w.chain, w.address,
                                      w.accounts[0], w.data_dir,
                                      rng=random.Random(5), trace=True)
    iface.call("put", [4])
    tx = iface.simulate_call("open", [])
    assert tx.witness_log  # sensitive log only materializes under --trace
    captured = capsys.readouterr()
    assert "[trace]" in captured.out
    iface_quiet = w.iface(1)
    iface_quiet.call("put", [6])
    tx2 = iface_quiet.simulate_call("open", [])
    assert not tx2.witness_log


# --- hybrid backend end to end ------------------------------------------------


def test_hybrid_token_end_to_end(world_factory, hybrid_token):
    w = world_factory(hybrid_token)
    alice, bob = w.iface(0), w.iface(1)
    assert alice.call("register", []).success
    assert alice.call("buy", [100]).success
    assert alice.call("buy", [42]).success
    assert alice.state("balance", (w.accounts[0],)) == 142
    foreign = bob.state("balance", (w.accounts[0],))
    assert isinstance(foreign, tuple) and len(foreign) == 5
    # tampering any cipher slot of the out array breaks verification
    tx = alice.simulate_call("buy", [7])
    for slot in range(len(tx.out)):
        bad = list(tx.out)
        bad[slot] = (bad[slot] + 1) % hybrid_token.field.p
        r = w.chain.transact(w.address, "buy", tx.args, w.accounts[0], 0,
                             bad, tx.proof, hybrid_token)
        assert not r.success and r.exit_kind == "verification", slot


def test_division_by_zero_reverts(world_factory):
    from veil.source import SourceFile
    artifact = compile_source(SourceFile("d.zkay", """
    contract D {
        uint q;
        function f(uint a, uint b) public { q = a / b; }
        function g(uint a, uint b) public { q = a % b; }
    }"""), BuildSettings())
    w = world_factory(artifact)
    iface = w.iface(0)
    r = iface.call("f", [7, 2])
    assert r.success and r.state_diff == ["q"]
    r = iface.call("f", [7, 2])  # rewriting the same value changes nothing
    assert r.success and r.state_diff == []
    assert iface.state("q") == 3
    r = iface.call("f", [7, 0])
    assert not r.success and r.exit_kind == "require"
    assert iface.state("q") == 3  # atomic
    r = iface.call("g", [7, 0])
    assert not r.success


def test_failed_simulation_leaves_chain_unchanged(world_factory):
    from veil.interpreter import RequireException
    from veil.source import SourceFile
    w = world_factory(compile_source(SourceFile("d.zkay", """
    contract D {
        uint q;
        function h(uint a, uint b) public { q = a; q = q / b; }
    }"""), BuildSettings()))
    iface = w.iface(0)
    assert iface.call("h", [7, 2]).success
    before = w.chain.digest()
    with pytest.raises(RequireException):
        iface.simulate_call("h", [9, 0])  # writes q, then divides by zero
    assert w.chain.digest() == before
    assert iface.state("q") == 3

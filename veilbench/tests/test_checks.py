"""Each correctness check passes on the program's real outputs and fails
when its expected value is wrong."""
import pytest

import checks
from checks import CheckFailed


def test_token_checks_reject_wrong_expectations(make_workload):
    w = make_workload("token-holders")
    w.run(False)  # every check passes on the real outputs
    account = w.session[0]

    registered, balance = w.ledger[account]
    w.ledger[account] = (registered, (balance + 1) % (1 << 32))
    with pytest.raises(CheckFailed, match="registered, balance"):
        w.view(account)
    w.ledger[account] = (registered, balance)
    w.view(account)

    storage = w.chain.storage_of(w.address)["balance"]
    holder = next(h for h in w.initial if h not in w.ledger)
    wrong = dict(w.initial)
    wrong[holder] = (wrong[holder][0] + 1,)
    checks.check_untouched(w.initial, storage, w.ledger)
    with pytest.raises(CheckFailed, match="untouched holder"):
        checks.check_untouched(wrong, storage, w.ledger)

    loaded = {c: k.verifier.digest.hex() for c, k in w.artifact.keys.items()}
    with pytest.raises(CheckFailed, match="verifying-key digests"):
        checks.check_cold_start({c: "00" * 32 for c in loaded}, loaded)

    iface = w.iface(account)
    tx = iface.simulate_call("buy", [1])
    bad = list(tx.out)
    bad[0] = (bad[0] + 1) % w.artifact.field.p
    digest = w.chain.state_digest()
    tampered = w.chain.transact(w.address, "buy", tx.args, account, 0, bad,
                                tx.proof, w.artifact)
    checks.check_tampered(tampered, digest, w.chain.state_digest())
    with pytest.raises(CheckFailed, match="state digest"):
        checks.check_tampered(tampered, digest, "0" * 64)
    with pytest.raises(CheckFailed, match="tampered transaction"):
        checks.check_tampered(iface.call("buy", [1]), digest, digest)

    stranger = w.chain.create_account("not registered")
    reverted = w.iface(stranger).call("buy", [1])
    with pytest.raises(CheckFailed, match="reverted"):
        checks.check_success("buy", reverted)
    with pytest.raises(CheckFailed, match="tampered transaction"):
        checks.check_tampered(reverted, digest, digest)

    w.gas_expect["buy"] += 1
    with pytest.raises(CheckFailed, match="gas of buy"):
        w.buy(account, 5)


def test_corpus_final_state_check_rejects_a_wrong_oracle_value(make_workload):
    w = make_workload("corpus-dummy")
    final = w.plans["reveal"]["final"]
    key = next(k for k in final if k[0] == "total")
    final[key] += 1
    with pytest.raises(CheckFailed, match="reveal final state"):
        w.run(False)


def test_corpus_receipt_check_rejects_a_wrong_return_value(make_workload):
    w = make_workload("corpus-dummy")
    plan = w.plans["features"]
    i = next(i for i, op in enumerate(plan["ops"]) if op[0] == "twirl")
    plan["returns"][i] += 1
    with pytest.raises(CheckFailed, match="return value"):
        w.run(False)


def test_gas_follows_the_published_key():
    vk = b'VVK\x01{"hashing_active": false, "hash_compressions": 0, ' \
         b'"n_in": 3, "n_out": 2}'
    hashed = b'VVK\x01{"hashing_active": true, "hash_compressions": 7, ' \
             b'"n_in": 7, "n_out": 5}'
    assert checks.expected_gas(vk, 10, 100, 1000) == 1050
    assert checks.expected_gas(hashed, 10, 100, 1000) == 1710

"""Correctness checks.  Each compares what the program produced with an
expectation the benchmark derived on its own: its ledger, the plaintext
oracle in tests/reference.py, the published verifying keys, or a digest taken
before the operation.  A mismatch raises `CheckFailed`."""
from __future__ import annotations

import json
from typing import Dict, Iterable, Mapping


class CheckFailed(Exception):
    pass


def check_equal(what: str, expected, observed):
    if expected != observed:
        raise CheckFailed(f"{what}: expected {expected!r}, got {observed!r}")


def published_vk(vk_bytes: bytes) -> dict:
    """The fields of a verifying-key file: a short magic, then JSON."""
    return json.loads(vk_bytes[vk_bytes.index(b"{"):])


def expected_gas(vk_bytes: bytes, per_slot: int, per_compression: int,
                 per_verification: int) -> int:
    """The gas a proof-carrying transaction must be charged for one
    verification under this key."""
    vk = published_vk(vk_bytes)
    slots = 1 if vk["hashing_active"] else vk["n_in"] + vk["n_out"]
    return (per_slot * slots + per_compression * vk["hash_compressions"]
            + per_verification)


def check_gas(what: str, expected: int, receipt):
    check_equal(f"gas of {what}", expected, receipt.gas_proxy)


def check_success(what: str, receipt):
    if not receipt.success:
        raise CheckFailed(f"{what} reverted ({receipt.exit_kind}): "
                          f"{receipt.revert_reason}")


def check_tampered(receipt, digest_before: str, digest_after: str):
    """A transaction with a tampered `out` array reverts as a verification
    failure and leaves the chain state as it was."""
    if receipt.success or receipt.exit_kind != "verification":
        raise CheckFailed(f"tampered transaction: success={receipt.success} "
                          f"exit_kind={receipt.exit_kind!r}")
    check_equal("state digest after the tampered transaction",
                digest_before, digest_after)


def check_cold_start(published: Mapping[str, str], loaded: Mapping[str, str]):
    """`load_artifact` reproduces the verifying-key digests that
    `compile -o` wrote."""
    check_equal("verifying-key digests after load_artifact",
                dict(published), dict(loaded))


def check_ledger(ledger: Mapping[int, tuple], observed: Mapping[int, tuple]):
    """Each account's (registered, balance) equals the benchmark's ledger."""
    for account, want in sorted(ledger.items()):
        check_equal(f"(registered, balance) of {account:#x}", want,
                    observed.get(account))


def check_untouched(expected: Mapping[int, tuple], storage: Mapping,
                    touched: Iterable[int]):
    """Holders no transaction touched keep byte-identical ciphertexts."""
    skip = set(touched)
    for account, cipher in expected.items():
        if account not in skip:
            check_equal(f"ciphertext of untouched holder {account:#x}",
                        cipher, tuple(storage.get(account, ())))


def check_state(what: str, expected: Dict, observed: Dict):
    """Final decrypted state equals the plaintext oracle's."""
    for key in sorted(set(expected) | set(observed), key=repr):
        check_equal(f"{what} {key}", expected.get(key, 0), observed.get(key, 0))

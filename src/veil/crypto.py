"""Encryption backends: host-side keygen/enc/dec plus the matching in-circuit
constraint emitters.

Two working backends:

* ``dummy``  - the additive surrogate cipher Enc(v, k) = v + k mod p with a
  single slot.  Provides no confidentiality; the mock chain is its only
  permitted target.
* ``dh-arx`` - hybrid encryption: Diffie-Hellman in the multiplicative group
  of the circuit field (pk = g^sk mod p), shared key = leftmost 128 bits of
  SHA-256(shared secret), and a 16-round ARX block cipher in CBC mode.  The
  exact permutation is documented in docs/arx_cipher.md, which is normative
  for both the host and circuit implementations.  NOT production-secure:
  the group is not a curve and the scheme exists to keep every compiler and
  runtime behavior testable end to end.

The all-zero ciphertext is reserved for "uninitialized" storage: encryption
never returns it, and decrypting it yields plaintext 0.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .field import Field
from .gadgets import Builder, lc_add, lc_const, lc_scale
from .sha256gadget import Sha256Gadget, Word

Ciphertext = Tuple[int, ...]

MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1

ARX_ROUNDS = 16
DH_GENERATOR = 7
SK_BITS = 252


class UnsupportedBackend(Exception):
    pass


@dataclass(frozen=True)
class KeyMaterial:
    sk: int
    pk: int


def is_zero_cipher(cipher: Sequence[int]) -> bool:
    return all(s == 0 for s in cipher)


def zero_cipher(backend: "CryptoBackend") -> Ciphertext:
    return (0,) * backend.cipher_slots


# --- ARX permutation (Chaskey-LTS-style, see docs/arx_cipher.md) ---------------


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & MASK32


def _rotr(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & MASK32


def arx_permute(state: int) -> int:
    v = [(state >> (32 * i)) & MASK32 for i in range(4)]
    for _ in range(ARX_ROUNDS):
        v[0] = (v[0] + v[1]) & MASK32
        v[1] = _rotl(v[1], 5) ^ v[0]
        v[0] = _rotl(v[0], 16)
        v[2] = (v[2] + v[3]) & MASK32
        v[3] = _rotl(v[3], 8) ^ v[2]
        v[0] = (v[0] + v[3]) & MASK32
        v[3] = _rotl(v[3], 13) ^ v[0]
        v[2] = (v[2] + v[1]) & MASK32
        v[1] = _rotl(v[1], 7) ^ v[2]
        v[2] = _rotl(v[2], 16)
    return sum(v[i] << (32 * i) for i in range(4))


def arx_unpermute(state: int) -> int:
    v = [(state >> (32 * i)) & MASK32 for i in range(4)]
    for _ in range(ARX_ROUNDS):
        v[2] = _rotr(v[2], 16)
        v[1] = _rotr(v[1] ^ v[2], 7)
        v[2] = (v[2] - v[1]) & MASK32
        v[3] = _rotr(v[3] ^ v[0], 13)
        v[0] = (v[0] - v[3]) & MASK32
        v[3] = _rotr(v[3] ^ v[2], 8)
        v[2] = (v[2] - v[3]) & MASK32
        v[0] = _rotr(v[0], 16)
        v[1] = _rotr(v[1] ^ v[0], 5)
        v[0] = (v[0] - v[1]) & MASK32
    return sum(v[i] << (32 * i) for i in range(4))


def arx_encrypt_block(block: int, key: int) -> int:
    # single-key Even-Mansour around the permutation
    return arx_permute(block ^ key) ^ key


def arx_decrypt_block(block: int, key: int) -> int:
    return arx_unpermute(block ^ key) ^ key


def cbc_encrypt(blocks: Sequence[int], key: int, iv: int) -> List[int]:
    out = []
    prev = iv
    for m in blocks:
        c = arx_encrypt_block(m ^ prev, key)
        out.append(c)
        prev = c
    return out


def cbc_decrypt(blocks: Sequence[int], key: int, iv: int) -> List[int]:
    out = []
    prev = iv
    for c in blocks:
        out.append(arx_decrypt_block(c, key) ^ prev)
        prev = c
    return out


def derive_key(shared_secret: int) -> int:
    """Leftmost 128 bits of SHA-256 over the 32-byte big-endian secret."""
    digest = hashlib.sha256(shared_secret.to_bytes(32, "big")).digest()
    return int.from_bytes(digest[:16], "big")


# --- backend interface -----------------------------------------------------------


class CryptoBackend:
    name: str
    key_slots: int = 1
    cipher_slots: int = 1
    rnd_slots: int = 1
    hybrid: bool = False

    def __init__(self, field: Field):
        self.field = field

    def keygen(self, seed: bytes) -> KeyMaterial:
        raise NotImplementedError

    def enc(self, plain: int, recipient_pk: int, sender: KeyMaterial,
            rnd: int) -> Ciphertext:
        raise NotImplementedError

    def dec(self, cipher: Ciphertext, keys: KeyMaterial) -> Tuple[int, dict]:
        raise NotImplementedError

    def expected_slots(self, kit: "CircuitKit", plain, recipient_pk_lc,
                       rnd_lcs, cipher_lcs, mode: str):
        """Pairs (slot index, expected combination) the constraint pins."""
        raise NotImplementedError


class DummyBackend(CryptoBackend):
    """Enc(v, pk) = v + pk mod p; the public key doubles as the pad and
    equals the secret key.  When v + pk = 0 the slot would collide with the
    reserved zero ciphertext, so that single residue is encoded as v + pk + 1
    (a documented deviation; decryption of that value is off by one)."""

    name = "dummy"

    def keygen(self, seed: bytes) -> KeyMaterial:
        k = int.from_bytes(hashlib.sha256(b"dummy-key:" + seed).digest(), "big") % self.field.p
        if k == 0:
            k = 1
        return KeyMaterial(sk=k, pk=k)

    def enc(self, plain: int, recipient_pk: int, sender: KeyMaterial,
            rnd: int) -> Ciphertext:
        s = (plain + recipient_pk) % self.field.p
        if s == 0:
            s = 1
        return (s,)

    def dec(self, cipher: Ciphertext, keys: KeyMaterial) -> Tuple[int, dict]:
        if len(cipher) != self.cipher_slots:
            raise ValueError("malformed ciphertext")
        if is_zero_cipher(cipher):
            return 0, {"uninitialized": True}
        return (cipher[0] - keys.pk) % self.field.p, {"uninitialized": False}

    def expected_slots(self, kit, plain, recipient_pk_lc, rnd_lcs, cipher_lcs, mode):
        bld = kit.bld
        base = lc_add(plain, recipient_pk_lc)
        z = bld.is_zero(base, "dummy.zero-remap")
        return [(0, lc_add(base, z))]


class DhArxBackend(CryptoBackend):
    """Field-group Diffie-Hellman plus the ARX cipher in CBC mode.

    Ciphertext layout (5 slots): iv, block0, block1, sender_pk_lo,
    sender_pk_hi.  The public key is split into 128-bit / high halves so
    every slot fits 248 bits.  The plaintext (any field element) is
    serialized as two 128-bit blocks, high half first.
    """

    name = "dh-arx"
    cipher_slots = 5
    hybrid = True

    def keygen(self, seed: bytes) -> KeyMaterial:
        raw = int.from_bytes(hashlib.sha256(b"dh-arx-key:" + seed).digest(), "big")
        sk = raw % (1 << SK_BITS)
        if sk == 0:
            sk = 1
        return KeyMaterial(sk=sk, pk=pow(DH_GENERATOR, sk, self.field.p))

    @staticmethod
    def split_pk(pk: int) -> Tuple[int, int]:
        return pk & MASK128, pk >> 128

    def enc(self, plain: int, recipient_pk: int, sender: KeyMaterial,
            rnd: int) -> Ciphertext:
        shared = pow(recipient_pk, sender.sk, self.field.p)
        k = derive_key(shared)
        iv = rnd & MASK128
        while True:
            m1, m2 = plain >> 128, plain & MASK128
            b = cbc_encrypt([m1, m2], k, iv)
            lo, hi = self.split_pk(sender.pk)
            slots = (iv, b[0], b[1], lo, hi)
            if not is_zero_cipher(slots):
                return slots
            iv = (iv + 1) & MASK128  # fresh randomness; astronomically rare

    def dec(self, cipher: Ciphertext, keys: KeyMaterial) -> Tuple[int, dict]:
        if len(cipher) != self.cipher_slots:
            raise ValueError("malformed ciphertext")
        if is_zero_cipher(cipher):
            return 0, {"uninitialized": True}
        iv, b0, b1, lo, hi = cipher
        sender_pk = lo | (hi << 128)
        shared = pow(sender_pk, keys.sk, self.field.p)
        k = derive_key(shared)
        m1, m2 = cbc_decrypt([b0, b1], k, iv)
        return (m1 << 128) | m2, {"uninitialized": False, "sender_pk": sender_pk}

    # -- circuit side --

    def expected_slots(self, kit, plain, recipient_pk_lc, rnd_lcs, cipher_lcs, mode):
        bld = kit.bld
        sk_bits = kit.sk_bits()
        kit.keypair_assertion()
        if mode == "enc":
            key_bits = kit.shared_key_bits(recipient_pk_lc)
            iv_lc = rnd_lcs[0]
            iv_bits = kit.iv_bits(iv_lc)
        else:
            # the sender's key is embedded in the stored ciphertext
            sender_pk = lc_add(cipher_lcs[3], lc_scale(cipher_lcs[4], 1 << 128))
            key_bits = kit.shared_key_bits(sender_pk)
            iv_lc = cipher_lcs[0]
            iv_bits = bld.decompose(iv_lc, 128, "arx.iv")
        plain_bits = kit.plain_bits(plain)
        m2, m1 = plain_bits[:128], plain_bits[128:256]
        x1 = kit.xor_bits(m1, iv_bits)
        c1_bits = kit.arx_encrypt(x1, key_bits)
        c1 = bld.recompose(c1_bits)
        x2 = kit.xor_bits(m2, c1_bits)
        c2_bits = kit.arx_encrypt(x2, key_bits)
        c2 = bld.recompose(c2_bits)
        if mode == "enc":
            pk_lo, pk_hi = kit.my_pk_halves()
            return [(0, iv_lc), (1, c1), (2, c2), (3, pk_lo), (4, pk_hi)]
        return [(1, c1), (2, c2)]


class _StubBackend(CryptoBackend):
    def __init__(self, field: Field, name: str):
        super().__init__(field)
        self.name = name

    def _unsupported(self):
        raise UnsupportedBackend(
            f"crypto backend '{self.name}' is not supported by this build; "
            "use 'dummy' or 'dh-arx'")

    def keygen(self, seed):
        self._unsupported()

    def enc(self, *a):
        self._unsupported()

    def dec(self, *a):
        self._unsupported()

    def expected_slots(self, *a):
        self._unsupported()


STUB_BACKENDS = ("rsa-pkcs1.5", "rsa-oaep", "ecdh-aes", "ecdh-chaskey")


def backend_by_name(name: str, field: Field) -> CryptoBackend:
    if name == "dummy":
        return DummyBackend(field)
    if name == "dh-arx":
        return DhArxBackend(field)
    if name in STUB_BACKENDS:
        return _StubBackend(field, name)
    raise UnsupportedBackend(f"unknown crypto backend '{name}'")


# --- per-circuit gadget kit ---------------------------------------------------------


class CircuitKit:
    """Caches the per-circuit gadgets the hybrid backend shares across
    constraints: the secret-key bits, the key-pair assertion (once per
    circuit) and shared-key derivations (once per distinct public key)."""

    def __init__(self, bld: Builder, field: Field,
                 sk_wire: Optional[int] = None, my_pk_lc=None):
        self.bld = bld
        self.field = field
        self.sk_wire = sk_wire
        self.my_pk_lc = my_pk_lc
        self._sk_bits = None
        self._keypair_done = False
        self._shared: Dict[tuple, List] = {}
        self._pk_halves = None
        self._plain_cache: Dict[tuple, List] = {}
        self.sha = Sha256Gadget(bld)
        self.key_derivations = 0

    def _freeze(self, lc) -> tuple:
        return tuple(sorted(lc.items()))

    def sk_bits(self) -> List:
        if self._sk_bits is None:
            assert self.sk_wire is not None, "circuit has no secret-key input"
            self._sk_bits = self.bld.decompose(lc_const(0) | {self.sk_wire: 1},
                                               SK_BITS, "sk")
        return self._sk_bits

    def keypair_assertion(self):
        """assert my_pk == g^sk, once per circuit."""
        if self._keypair_done:
            return
        self._keypair_done = True
        acc = self.ladder_const(DH_GENERATOR, self.sk_bits())
        self.bld.enforce(acc, lc_const(1), self.my_pk_lc, "keypair")

    def ladder_const(self, base: int, bits: List) -> dict:
        bld = self.bld
        acc = lc_const(1)
        for bit in reversed(bits):
            acc = bld.mul_var(acc, acc, "ladder.sq")
            sel = lc_add(lc_const(1), lc_scale(bit, base - 1))
            acc = bld.mul_var(acc, sel, "ladder.mul")
        return acc

    def ladder_var(self, base_lc: dict, bits: List) -> dict:
        bld = self.bld
        acc = lc_const(1)
        for bit in reversed(bits):
            acc = bld.mul_var(acc, acc, "ladder.sq")
            bit_base = bld.mul_var(bit, base_lc, "ladder.sel")
            sel = lc_add(lc_const(1), lc_scale(bit, -1), bit_base)
            acc = bld.mul_var(acc, sel, "ladder.mul")
        return acc

    def shared_key_bits(self, pk_lc: dict) -> List[List]:
        """128-bit symmetric key (as 4 LSB-first 32-bit bit-words) derived
        from the shared secret with the given public key; cached per pk."""
        key = self._freeze(pk_lc)
        if key in self._shared:
            return self._shared[key]
        self.key_derivations += 1
        secret = self.ladder_var(pk_lc, self.sk_bits())
        secret_bits = self.bld.decompose(secret, self.field.bits, "shared")
        padded = secret_bits + [lc_const(0)] * (256 - len(secret_bits))
        words = self.sha.value_words(padded)
        state = self.sha.sha256_blocks(words, 256)
        # leftmost 128 bits = H0..H3; ARX wants little-endian word order
        key_words = [state[3].bits, state[2].bits, state[1].bits, state[0].bits]
        self._shared[key] = key_words
        return key_words

    def my_pk_halves(self) -> Tuple[dict, dict]:
        if self._pk_halves is None:
            bits = self.bld.decompose(self.my_pk_lc, self.field.bits, "pk.split")
            lo = self.bld.recompose(bits[:128])
            hi = self.bld.recompose(bits[128:])
            self._pk_halves = (lo, hi)
        return self._pk_halves

    def plain_bits(self, plain_lc: dict) -> List:
        """256 LSB-first bits of the plaintext combination (cached)."""
        key = self._freeze(plain_lc)
        if key not in self._plain_cache:
            bits = self.bld.decompose(plain_lc, self.field.bits, "plain")
            self._plain_cache[key] = bits + [lc_const(0)] * (256 - len(bits))
        return self._plain_cache[key]

    def iv_bits(self, iv_lc: dict) -> List:
        """Range-proven 128-bit decomposition of an initialization vector."""
        key = self._freeze(iv_lc)
        if key not in self._plain_cache:
            self._plain_cache[key] = self.bld.decompose(iv_lc, 128, "iv")
        return self._plain_cache[key]

    # -- bit-vector helpers (128-bit values as 4 LSB-first 32-bit words) --

    def xor_bits(self, a: List, b: List) -> List:
        assert len(a) == len(b)
        bld = self.bld
        return bld.bit_gate("^", a, b, bld.recompose(a), bld.recompose(b), "arx.xor")

    def arx_encrypt(self, block_bits: List, key_words: List[List]) -> List:
        """E_k per docs/arx_cipher.md over 128-bit bit vectors."""
        sha = self.sha
        key_bits = [bit for kw in key_words for bit in kw]
        x = self.xor_bits(block_bits, key_bits)
        v = [Word(x[32 * i: 32 * i + 32]) for i in range(4)]
        for _ in range(ARX_ROUNDS):
            # rotl r moves bit i to i + r, which is rotr(32 - r)
            v0 = sha.add_mod32([v[0].lc(), v[1].lc()], tag="arx.add")
            v1 = sha.xor(v[1].rotr(32 - 5), v0, "arx.xor")
            v0 = v0.rotr(32 - 16)
            v2 = sha.add_mod32([v[2].lc(), v[3].lc()], tag="arx.add")
            v3 = sha.xor(v[3].rotr(32 - 8), v2, "arx.xor")
            v0 = sha.add_mod32([v0.lc(), v3.lc()], tag="arx.add")
            v3 = sha.xor(v3.rotr(32 - 13), v0, "arx.xor")
            v2 = sha.add_mod32([v2.lc(), v1.lc()], tag="arx.add")
            v1 = sha.xor(v1.rotr(32 - 7), v2, "arx.xor")
            v2 = v2.rotr(32 - 16)
            v = [v0, v1, v2, v3]
        return self.xor_bits([bit for w in v for bit in w.bits], key_bits)

"""SHA-256 for public-input hashing: host-side digests with exact
compression counts, and the matching in-circuit gadget.

Two constructions exist for hashing n public 256-bit slots:

* concat: one SHA-256 over the big-endian concatenation of all slots,
  floor(n/2)+1 compressions.
* legacy-chain: d_0 = 0^256, d_i = SHA-256(d_(i-1) || slot_i), two
  compressions per step, 2n total.

The resulting 256-bit digest is truncated to its low (field bits - 1) bits
so it fits one field element.  Host and circuit use the identical byte
serialization: each slot as 32 bytes big-endian.
"""
from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from .field import Field
from .gadgets import Builder, lc_add, lc_const

CONCAT = "concat"
LEGACY_CHAIN = "legacy-chain"
HASH_MODES = (CONCAT, LEGACY_CHAIN)

_K = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
]
_H0 = [0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19]


def compressions_for_bytes(nbytes: int) -> int:
    """Merkle-Damgard block count for a message of nbytes."""
    return (nbytes * 8 + 65 + 511) // 512


def concat_compressions(n: int) -> int:
    return compressions_for_bytes(32 * n)


def legacy_compressions(n: int) -> int:
    return n * compressions_for_bytes(64)


def _slot_bytes(values: Sequence[int]) -> bytes:
    return b"".join(v.to_bytes(32, "big") for v in values)


def truncate_digest(digest: bytes, field: Field) -> int:
    """Keep the low (field bits - 1) bits of the 256-bit digest."""
    keep = field.bits - 1
    return int.from_bytes(digest, "big") & ((1 << keep) - 1)


def hash_public_io(values: Sequence[int], field: Field, mode: str = CONCAT,
                   threshold: Optional[int] = None) -> Tuple[Optional[int], int]:
    """Digest (as field element) and exact compression count.  When a
    threshold is given and the slot count does not exceed it, hashing is
    skipped: no digest, zero compressions."""
    if threshold is not None and len(values) <= threshold:
        return None, 0
    if mode == CONCAT:
        data = _slot_bytes(values)
        return truncate_digest(hashlib.sha256(data).digest(), field), \
            compressions_for_bytes(len(data))
    if mode == LEGACY_CHAIN:
        d = b"\x00" * 32
        count = 0
        for v in values:
            payload = d + v.to_bytes(32, "big")
            d = hashlib.sha256(payload).digest()
            count += compressions_for_bytes(len(payload))
        return truncate_digest(d, field), count
    raise ValueError(f"unknown hash mode {mode!r}")


# --- in-circuit gadget ---------------------------------------------------------


class Word:
    """A 32-bit word as LSB-first bit combinations."""

    __slots__ = ("bits", "_lc")

    def __init__(self, bits: List[Dict[int, int]]):
        assert len(bits) == 32
        self.bits = bits
        self._lc = None

    @classmethod
    def const(cls, value: int) -> "Word":
        return cls([lc_const((value >> i) & 1) for i in range(32)])

    def lc(self) -> Dict[int, int]:
        if self._lc is None:
            self._lc = Builder.recompose(self.bits)
        return self._lc

    def rotr(self, r: int) -> "Word":
        return Word(self.bits[r:] + self.bits[:r])

    def shr(self, r: int) -> "Word":
        return Word(self.bits[r:] + [lc_const(0)] * r)


class Sha256Gadget:
    def __init__(self, bld: Builder):
        self.bld = bld

    # -- word helpers --

    def xor(self, a: Word, b: Word, tag: str = "sha.xor") -> Word:
        return Word(self.bld.bit_gate("^", a.bits, b.bits, a.lc(), b.lc(), tag))

    def xor3(self, a: Word, b: Word, c: Word) -> Word:
        return self.xor(self.xor(a, b), c)

    def band(self, a: Word, b: Word) -> Word:
        return Word(self.bld.bit_gate("&", a.bits, b.bits, a.lc(), b.lc(), "sha.and"))

    def add_mod32(self, parts: List[Dict[int, int]], extra_const: int = 0,
                  tag: str = "sha.add") -> Word:
        """Sum word values modulo 2^32, returning the result's bits."""
        total = lc_add(*parts, lc_const(extra_const))
        maxval = (len(parts) + (1 if extra_const else 0)) << 32
        nbits = max(33, maxval.bit_length())
        bits = self.bld.decompose(total, nbits, tag)
        return Word(bits[:32])

    # -- compression --

    def compress(self, state: List[Word], block: List[Word]) -> List[Word]:
        w = list(block)
        for i in range(16, 64):
            s0 = self.xor3(w[i - 15].rotr(7), w[i - 15].rotr(18), w[i - 15].shr(3))
            s1 = self.xor3(w[i - 2].rotr(17), w[i - 2].rotr(19), w[i - 2].shr(10))
            w.append(self.add_mod32([w[i - 16].lc(), s0.lc(), w[i - 7].lc(), s1.lc()]))
        a, b, c, d, e, f, g, h = state
        for i in range(64):
            big1 = self.xor3(e.rotr(6), e.rotr(11), e.rotr(25))
            ch = self.xor(self.band(e, self.xor(f, g)), g)
            t1_parts = [h.lc(), big1.lc(), ch.lc(), w[i].lc()]
            big0 = self.xor3(a.rotr(2), a.rotr(13), a.rotr(22))
            maj = self.xor(self.band(a, self.xor(b, c)), self.band(b, c))
            new_e = self.add_mod32([d.lc()] + t1_parts, _K[i])
            new_a = self.add_mod32(t1_parts + [big0.lc(), maj.lc()], _K[i])
            a, b, c, d, e, f, g, h = new_a, a, b, c, new_e, e, f, g
        out = []
        for s, v in zip(state, (a, b, c, d, e, f, g, h)):
            out.append(self.add_mod32([s.lc(), v.lc()]))
        return out

    # -- message handling --

    def value_words(self, value_bits: List[Dict[int, int]]) -> List[Word]:
        """Split a 256-bit value (LSB-first bits) into big-endian words."""
        assert len(value_bits) == 256
        return [Word(value_bits[224 - 32 * j: 256 - 32 * j]) for j in range(8)]

    def sha256_blocks(self, message_words: List[Word], bit_length: int) -> List[Word]:
        """Run full SHA-256 over message_words plus standard padding."""
        padded = list(message_words)
        # append 0x80... : the bit after the message is 1
        pad_words = []
        total_bits = bit_length + 1 + 64
        blocks_needed = (total_bits + 511) // 512
        pad_bits_count = blocks_needed * 512 - bit_length
        first = 1 << 31  # leading 1 bit at the top of the next word
        pad_words.append(Word.const(first))
        zero_words = pad_bits_count // 32 - 3
        pad_words.extend(Word.const(0) for _ in range(zero_words))
        pad_words.append(Word.const(bit_length >> 32))
        pad_words.append(Word.const(bit_length & 0xFFFFFFFF))
        padded.extend(pad_words)
        assert len(padded) % 16 == 0
        state = [Word.const(h) for h in _H0]
        for blk in range(0, len(padded), 16):
            state = self.compress(state, padded[blk: blk + 16])
        return state

    def digest_lc(self, state: List[Word], field: Field) -> Dict[int, int]:
        """Truncated digest as one field element (low field.bits-1 bits)."""
        lsb_first = [bit for word in reversed(state) for bit in word.bits]
        return Builder.recompose(lsb_first[:field.bits - 1])


def circuit_hash(bld: Builder, slot_bits: List[List[Dict[int, int]]],
                 field: Field, mode: str = CONCAT) -> Dict[int, int]:
    """Emit constraints computing the public-input digest of the given slots
    (each as 256 LSB-first bit combinations); returns the digest LC."""
    g = Sha256Gadget(bld)
    if mode == CONCAT:
        words: List[Word] = []
        for bits in slot_bits:
            words.extend(g.value_words(bits))
        state = g.sha256_blocks(words, 256 * len(slot_bits))
        return g.digest_lc(state, field)
    if mode == LEGACY_CHAIN:
        state_words = [Word.const(0) for _ in range(8)]
        for bits in slot_bits:
            message = state_words + g.value_words(bits)
            state_words = g.sha256_blocks(message, 512)
        return g.digest_lc(state_words, field)
    raise ValueError(f"unknown hash mode {mode!r}")

#include "src/aes/aes128.h"

#include <bit>
#include <cstring>

namespace memsentry::aes {
namespace {

// GF(2^8) arithmetic over the AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11b).
uint8_t Xtime(uint8_t a) { return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00)); }

uint8_t Gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) {
      p ^= a;
    }
    a = Xtime(a);
    b >>= 1;
  }
  return p;
}

// The S-box is computed (inverse in GF(2^8) + affine transform) rather than
// transcribed; tests pin the known values S(0x00)=0x63, S(0x53)=0xed. The
// encryption T-tables compose SubBytes with a MixColumns column: te0[x] holds
// the column ({2},{1},{1},{3})·S(x) packed little-endian (row r in bits
// 8r..8r+7) and te1..te3 are its byte rotations, so a whole encryption round
// is sixteen 32-bit lookups and xors on four column words.
struct SboxTables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];
  uint32_t te0[256];
  uint32_t te1[256];
  uint32_t te2[256];
  uint32_t te3[256];
  // Decrypt round: {14,11,13,9}·S⁻¹(x).
  uint8_t dec14[256];
  uint8_t dec11[256];
  uint8_t dec13[256];
  uint8_t dec9[256];
  // Raw InvMixColumns constants for aesimc (no S-box composition).
  uint8_t mul14[256];
  uint8_t mul11[256];
  uint8_t mul13[256];
  uint8_t mul9[256];

  SboxTables() {
    // Build inverses via brute force once; table construction is not hot.
    uint8_t inverse[256] = {0};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (Gmul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
          inverse[a] = static_cast<uint8_t>(b);
          break;
        }
      }
    }
    for (int x = 0; x < 256; ++x) {
      const uint8_t inv = inverse[x];
      uint8_t s = 0x63;
      for (int i = 0; i < 8; ++i) {
        const uint8_t bit = static_cast<uint8_t>(
            ((inv >> i) ^ (inv >> ((i + 4) & 7)) ^ (inv >> ((i + 5) & 7)) ^
             (inv >> ((i + 6) & 7)) ^ (inv >> ((i + 7) & 7))) &
            1);
        s = static_cast<uint8_t>(s ^ (bit << i));
      }
      // s started as the affine constant 0x63; the loop xored in the rotated
      // bits, so s now holds the full affine transform of inv.
      sbox[x] = s;
      inv_sbox[s] = static_cast<uint8_t>(x);
    }
    for (int x = 0; x < 256; ++x) {
      const uint8_t b = static_cast<uint8_t>(x);
      const uint32_t s = sbox[x];
      te0[x] = Gmul(sbox[x], 2) | (s << 8) | (s << 16) | (uint32_t{Gmul(sbox[x], 3)} << 24);
      te1[x] = std::rotl(te0[x], 8);
      te2[x] = std::rotl(te0[x], 16);
      te3[x] = std::rotl(te0[x], 24);
      dec14[x] = Gmul(inv_sbox[x], 14);
      dec11[x] = Gmul(inv_sbox[x], 11);
      dec13[x] = Gmul(inv_sbox[x], 13);
      dec9[x] = Gmul(inv_sbox[x], 9);
      mul14[x] = Gmul(b, 14);
      mul11[x] = Gmul(b, 11);
      mul13[x] = Gmul(b, 13);
      mul9[x] = Gmul(b, 9);
    }
  }
};

const SboxTables& Tables() {
  static const SboxTables tables;
  return tables;
}

Block InvSubBytes(const Block& in) {
  const SboxTables& t = Tables();
  Block out;
  for (int i = 0; i < kBlockSize; ++i) {
    out[i] = t.inv_sbox[in[i]];
  }
  return out;
}

// State layout is FIPS-197 column-major: byte index = row + 4*column.
Block InvShiftRows(const Block& in) {
  Block out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      out[r + 4 * c] = in[r + 4 * ((c - r + 4) & 3)];
    }
  }
  return out;
}

Block InvMixColumns(const Block& in) {
  const SboxTables& t = Tables();
  Block out;
  for (int c = 0; c < 4; ++c) {
    const uint8_t* col = &in[4 * c];
    out[4 * c + 0] =
        static_cast<uint8_t>(t.mul14[col[0]] ^ t.mul11[col[1]] ^ t.mul13[col[2]] ^ t.mul9[col[3]]);
    out[4 * c + 1] =
        static_cast<uint8_t>(t.mul9[col[0]] ^ t.mul14[col[1]] ^ t.mul11[col[2]] ^ t.mul13[col[3]]);
    out[4 * c + 2] =
        static_cast<uint8_t>(t.mul13[col[0]] ^ t.mul9[col[1]] ^ t.mul14[col[2]] ^ t.mul11[col[3]]);
    out[4 * c + 3] =
        static_cast<uint8_t>(t.mul11[col[0]] ^ t.mul13[col[1]] ^ t.mul9[col[2]] ^ t.mul14[col[3]]);
  }
  return out;
}

Block Xor(const Block& a, const Block& b) {
  Block out;
  for (int i = 0; i < kBlockSize; ++i) {
    out[i] = a[i] ^ b[i];
  }
  return out;
}

// Column words: byte r of column c (FIPS-197 index r + 4c) sits in bits
// 8r..8r+7 of word c, independent of host byte order.
using Words = std::array<uint32_t, 4>;

uint32_t LoadWord(const uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint32_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  }
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) | (uint32_t{p[3]} << 24);
}

void StoreWord(uint32_t w, uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &w, sizeof(w));
    return;
  }
  p[0] = static_cast<uint8_t>(w);
  p[1] = static_cast<uint8_t>(w >> 8);
  p[2] = static_cast<uint8_t>(w >> 16);
  p[3] = static_cast<uint8_t>(w >> 24);
}

Words LoadWords(const Block& b) {
  return {LoadWord(&b[0]), LoadWord(&b[4]), LoadWord(&b[8]), LoadWord(&b[12])};
}

Block StoreWords(const Words& w) {
  Block b;
  for (int c = 0; c < 4; ++c) {
    StoreWord(w[c], &b[4 * c]);
  }
  return b;
}

// SubBytes → ShiftRows → MixColumns → AddRoundKey on column words: column c
// of the shifted state takes row r from column (c + r) mod 4, and the te
// tables fold the S-box into the MixColumns constants.
inline Words RoundWords(const SboxTables& t, const Words& in, const RoundKey& key) {
  const auto column = [&](int c) {
    return t.te0[in[c] & 0xff] ^ t.te1[(in[(c + 1) & 3] >> 8) & 0xff] ^
           t.te2[(in[(c + 2) & 3] >> 16) & 0xff] ^ t.te3[in[(c + 3) & 3] >> 24] ^
           LoadWord(&key[4 * c]);
  };
  return {column(0), column(1), column(2), column(3)};
}

// The final round: SubBytes → ShiftRows → AddRoundKey, no MixColumns.
inline Words LastRoundWords(const SboxTables& t, const Words& in, const RoundKey& key) {
  const auto column = [&](int c) {
    return (uint32_t{t.sbox[in[c] & 0xff]} | (uint32_t{t.sbox[(in[(c + 1) & 3] >> 8) & 0xff]} << 8) |
            (uint32_t{t.sbox[(in[(c + 2) & 3] >> 16) & 0xff]} << 16) |
            (uint32_t{t.sbox[in[(c + 3) & 3] >> 24]} << 24)) ^
           LoadWord(&key[4 * c]);
  };
  return {column(0), column(1), column(2), column(3)};
}

}  // namespace

KeySchedule ExpandKey(const Block& key) {
  const uint8_t* sbox = Tables().sbox;
  KeySchedule keys;
  keys[0] = key;
  uint32_t w0 = LoadWord(&key[0]);
  uint32_t w1 = LoadWord(&key[4]);
  uint32_t w2 = LoadWord(&key[8]);
  uint32_t w3 = LoadWord(&key[12]);
  uint8_t rcon = 0x01;
  for (int round = 1; round < kNumRoundKeys; ++round) {
    // RotWord + SubWord + Rcon on the previous last word; RotWord moves byte
    // 0 to byte 3, a right rotation of the little-endian column word.
    const uint32_t rot = std::rotr(w3, 8);
    const uint32_t t =
        (uint32_t{sbox[rot & 0xff]} | (uint32_t{sbox[(rot >> 8) & 0xff]} << 8) |
         (uint32_t{sbox[(rot >> 16) & 0xff]} << 16) | (uint32_t{sbox[rot >> 24]} << 24)) ^
        rcon;
    rcon = Xtime(rcon);
    // Word i of the new key is t xor words 0..i of the previous one; the
    // prefix xors do not wait for t, so only one xor follows the S-box.
    const uint32_t p1 = w0 ^ w1;
    const uint32_t p2 = p1 ^ w2;
    const uint32_t p3 = p2 ^ w3;
    w0 ^= t;
    w1 = p1 ^ t;
    w2 = p2 ^ t;
    w3 = p3 ^ t;
    StoreWord(w0, &keys[round][0]);
    StoreWord(w1, &keys[round][4]);
    StoreWord(w2, &keys[round][8]);
    StoreWord(w3, &keys[round][12]);
  }
  return keys;
}

KeySchedule InverseKeySchedule(const KeySchedule& enc) {
  KeySchedule dec = enc;
  for (int round = 1; round < kNumRounds; ++round) {
    dec[round] = InvMixColumnsBlock(enc[round]);
  }
  return dec;
}

Block EncryptRound(const Block& state, const RoundKey& key) {
  return StoreWords(RoundWords(Tables(), LoadWords(state), key));
}

Block EncryptLastRound(const Block& state, const RoundKey& key) {
  return StoreWords(LastRoundWords(Tables(), LoadWords(state), key));
}

// Equivalent inverse cipher (aesdec): expects an InvMixColumns'd round key.
// InvShiftRows → InvSubBytes → InvMixColumns, composed via the dec* tables.
Block DecryptRound(const Block& state, const RoundKey& key) {
  const SboxTables& t = Tables();
  Block out;
  for (int c = 0; c < 4; ++c) {
    const uint8_t a0 = state[0 + 4 * c];
    const uint8_t a1 = state[1 + 4 * ((c + 3) & 3)];
    const uint8_t a2 = state[2 + 4 * ((c + 2) & 3)];
    const uint8_t a3 = state[3 + 4 * ((c + 1) & 3)];
    out[4 * c + 0] =
        static_cast<uint8_t>(t.dec14[a0] ^ t.dec11[a1] ^ t.dec13[a2] ^ t.dec9[a3] ^ key[4 * c + 0]);
    out[4 * c + 1] =
        static_cast<uint8_t>(t.dec9[a0] ^ t.dec14[a1] ^ t.dec11[a2] ^ t.dec13[a3] ^ key[4 * c + 1]);
    out[4 * c + 2] =
        static_cast<uint8_t>(t.dec13[a0] ^ t.dec9[a1] ^ t.dec14[a2] ^ t.dec11[a3] ^ key[4 * c + 2]);
    out[4 * c + 3] =
        static_cast<uint8_t>(t.dec11[a0] ^ t.dec13[a1] ^ t.dec9[a2] ^ t.dec14[a3] ^ key[4 * c + 3]);
  }
  return out;
}

Block DecryptLastRound(const Block& state, const RoundKey& key) {
  return Xor(InvSubBytes(InvShiftRows(state)), key);
}

Block InvMixColumnsBlock(const Block& block) { return InvMixColumns(block); }

Block EncryptBlock(const Block& plaintext, const KeySchedule& keys) {
  const SboxTables& t = Tables();
  Words state = LoadWords(plaintext);
  for (int c = 0; c < 4; ++c) {
    state[c] ^= LoadWord(&keys[0][4 * c]);
  }
  for (int round = 1; round < kNumRounds; ++round) {
    state = RoundWords(t, state, keys[round]);
  }
  return StoreWords(LastRoundWords(t, state, keys[kNumRounds]));
}

Block DecryptBlock(const Block& ciphertext, const KeySchedule& enc_keys) {
  const KeySchedule dec = InverseKeySchedule(enc_keys);
  Block state = Xor(ciphertext, enc_keys[kNumRounds]);
  for (int round = kNumRounds - 1; round >= 1; --round) {
    state = DecryptRound(state, dec[round]);
  }
  return DecryptLastRound(state, enc_keys[0]);
}

void CryptRegion(std::span<uint8_t> data, const KeySchedule& keys, uint64_t nonce) {
  uint64_t counter = 0;
  for (size_t offset = 0; offset < data.size(); offset += kBlockSize, ++counter) {
    Block ctr{};
    std::memcpy(ctr.data(), &nonce, sizeof(nonce));
    std::memcpy(ctr.data() + 8, &counter, sizeof(counter));
    const Block keystream = EncryptBlock(ctr, keys);
    const size_t chunk = std::min<size_t>(kBlockSize, data.size() - offset);
    for (size_t i = 0; i < chunk; ++i) {
      data[offset + i] ^= keystream[i];
    }
  }
}

}  // namespace memsentry::aes

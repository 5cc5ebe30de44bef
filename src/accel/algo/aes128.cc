#include "accel/algo/aes128.hh"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <wmmintrin.h>
#endif

namespace optimus::algo {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^
                                     ((x >> 7) ? 0x1b : 0x00));
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * AES-NI ECB: the FIPS-197 round keys are already in the byte order
 * AESENC takes, so no second key expansion is needed. Only this
 * function is compiled for the AES ISA; callers check the CPU first.
 */
__attribute__((target("aes,sse2"))) void
encryptEcbAesNi(const std::uint8_t *round_keys, std::uint8_t *data,
                std::size_t len)
{
    __m128i rk[11];
    for (int i = 0; i < 11; ++i) {
        rk[i] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(round_keys + i * 16));
    }
    for (std::size_t off = 0; off + 16 <= len; off += 16) {
        auto *p = reinterpret_cast<__m128i *>(data + off);
        __m128i s = _mm_xor_si128(_mm_loadu_si128(p), rk[0]);
        for (int round = 1; round <= 9; ++round)
            s = _mm_aesenc_si128(s, rk[round]);
        _mm_storeu_si128(p, _mm_aesenclast_si128(s, rk[10]));
    }
}

bool
cpuHasAesNi()
{
    // Function-local so the CPUID probe runs on first use, never
    // during another translation unit's static initialisation.
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("aes") != 0;
    }();
    return has;
}
#endif

} // namespace

void
Aes128::expandKey(const Key &key)
{
    std::memcpy(_roundKeys.data(), key.data(), 16);
    for (int i = 4; i < 44; ++i) {
        std::uint8_t t[4];
        std::memcpy(t, &_roundKeys[(i - 1) * 4], 4);
        if (i % 4 == 0) {
            std::uint8_t tmp = t[0];
            t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^
                                             kRcon[i / 4 - 1]);
            t[1] = kSbox[t[2]];
            t[2] = kSbox[t[3]];
            t[3] = kSbox[tmp];
        }
        for (int j = 0; j < 4; ++j) {
            _roundKeys[i * 4 + j] = static_cast<std::uint8_t>(
                _roundKeys[(i - 4) * 4 + j] ^ t[j]);
        }
    }
}

void
Aes128::encryptBlock(std::uint8_t *block) const
{
    std::uint8_t s[16];
    std::memcpy(s, block, 16);

    auto add_round_key = [&](int round) {
        for (int i = 0; i < 16; ++i)
            s[i] ^= _roundKeys[round * 16 + i];
    };
    auto sub_bytes = [&]() {
        for (auto &b : s)
            b = kSbox[b];
    };
    auto shift_rows = [&]() {
        std::uint8_t t[16];
        std::memcpy(t, s, 16);
        for (int c = 0; c < 4; ++c) {
            for (int r = 0; r < 4; ++r)
                s[c * 4 + r] = t[((c + r) % 4) * 4 + r];
        }
    };
    auto mix_columns = [&]() {
        for (int c = 0; c < 4; ++c) {
            std::uint8_t *col = &s[c * 4];
            std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2],
                         a3 = col[3];
            std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^
                                                         a3);
            col[0] = static_cast<std::uint8_t>(a0 ^ all ^
                                               xtime(a0 ^ a1));
            col[1] = static_cast<std::uint8_t>(a1 ^ all ^
                                               xtime(a1 ^ a2));
            col[2] = static_cast<std::uint8_t>(a2 ^ all ^
                                               xtime(a2 ^ a3));
            col[3] = static_cast<std::uint8_t>(a3 ^ all ^
                                               xtime(a3 ^ a0));
        }
    };

    add_round_key(0);
    for (int round = 1; round <= 9; ++round) {
        sub_bytes();
        shift_rows();
        mix_columns();
        add_round_key(round);
    }
    sub_bytes();
    shift_rows();
    add_round_key(10);

    std::memcpy(block, s, 16);
}

void
Aes128::encryptEcb(std::uint8_t *data, std::size_t len) const
{
#if defined(__x86_64__) || defined(__i386__)
    if (cpuHasAesNi()) {
        encryptEcbAesNi(_roundKeys.data(), data, len);
        return;
    }
#endif
    for (std::size_t off = 0; off + 16 <= len; off += 16)
        encryptBlock(data + off);
}

} // namespace optimus::algo

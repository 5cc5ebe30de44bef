/**
 * @file
 * AES-128 block cipher (encryption), as used by the AES benchmark
 * accelerator. ECB mode over 16-byte blocks; matches FIPS-197.
 */

#ifndef OPTIMUS_ACCEL_ALGO_AES128_HH
#define OPTIMUS_ACCEL_ALGO_AES128_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace optimus::algo {

/** Expanded-key AES-128 encryptor. */
class Aes128
{
  public:
    using Block = std::array<std::uint8_t, 16>;
    using Key = std::array<std::uint8_t, 16>;

    explicit Aes128(const Key &key) { expandKey(key); }

    /** Encrypt one 16-byte block in place (portable byte-wise code). */
    void encryptBlock(std::uint8_t *block) const;

    /**
     * Encrypt the whole 16-byte blocks of @p len bytes in place; a
     * shorter tail is left untouched. Uses AES-NI when the CPU has it,
     * otherwise encryptBlock(); both give identical ciphertext.
     */
    void encryptEcb(std::uint8_t *data, std::size_t len) const;

  private:
    void expandKey(const Key &key);

    /** 11 round keys of 16 bytes each. */
    std::array<std::uint8_t, 176> _roundKeys{};
};

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_AES128_HH

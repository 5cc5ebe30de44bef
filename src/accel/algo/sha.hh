/**
 * @file
 * SHA-256 and SHA-512 message digests (FIPS 180-4). SHA-512 backs the
 * SHA benchmark accelerator; SHA-256 (applied twice) backs the
 * Bitcoin miner.
 */

#ifndef OPTIMUS_ACCEL_ALGO_SHA_HH
#define OPTIMUS_ACCEL_ALGO_SHA_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/state_codec.hh"

namespace optimus::algo {

/** Incremental SHA-256. */
class Sha256
{
  public:
    using Digest = std::array<std::uint8_t, 32>;

    Sha256() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    Digest finish();

    static Digest hash(const void *data, std::size_t len);

    /** Bitcoin-style double hash: SHA256(SHA256(data)). */
    static Digest doubleHash(const void *data, std::size_t len);

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t _h[8];
    std::uint64_t _totalLen;
    std::uint8_t _buf[64];
    std::size_t _bufLen;
};

/** Incremental SHA-512. */
class Sha512
{
  public:
    using Digest = std::array<std::uint8_t, 64>;

    Sha512() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    Digest finish();

    static Digest hash(const void *data, std::size_t len);

    /** Save or restore internal state (accelerator preemption). */
    void serialize(sim::StateWriter &w) const;
    void deserialize(sim::StateReader &r);

  private:
    void processBlock(const std::uint8_t *block);

    std::uint64_t _h[8];
    /** Total length in bytes (128-bit length field: low word only,
     *  sufficient for simulated inputs). */
    std::uint64_t _totalLen;
    std::uint8_t _buf[128];
    std::size_t _bufLen;
};

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_SHA_HH

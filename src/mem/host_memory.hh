/**
 * @file
 * Functional backing store for host DRAM.
 *
 * Both the CPU side (guest processes, the hypervisor) and the FPGA
 * side (accelerator DMAs after IOMMU translation) read and write the
 * same HostMemory object — this is what makes the platform
 * "shared-memory" and lets tests verify consistency of the two views.
 */

#ifndef OPTIMUS_MEM_HOST_MEMORY_HH
#define OPTIMUS_MEM_HOST_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/address.hh"

namespace optimus::mem {

/**
 * Sparse, frame-granular physical memory.
 *
 * Frames are allocated lazily on first touch so a simulated 188 GB
 * server costs only what the workloads actually write. They sit in a
 * two-level directory: a dense vector of 2 MiB regions, grown to the
 * highest region written, each holding 512 frame slots. Finding a
 * frame is two indexed loads, with no hashing.
 */
class HostMemory
{
  public:
    /** @param capacity_bytes Total physical capacity to emulate. */
    explicit HostMemory(std::uint64_t capacity_bytes = 188ULL << 30)
        : _capacity(capacity_bytes)
    {
    }

    HostMemory(const HostMemory &) = delete;
    HostMemory &operator=(const HostMemory &) = delete;

    std::uint64_t capacity() const { return _capacity; }

    /** Copy @p len bytes from physical memory into @p dst. */
    void read(Hpa addr, void *dst, std::uint64_t len) const;

    /** Copy @p len bytes from @p src into physical memory. */
    void write(Hpa addr, const void *src, std::uint64_t len);

    /** Convenience typed accessors. */
    template <typename T>
    T
    readValue(Hpa addr) const
    {
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeValue(Hpa addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Number of frames materialized so far (for tests). */
    std::size_t framesTouched() const { return _framesTouched; }

    /**
     * Scratch mode: discard writes to frames that were never
     * written before, instead of materializing them. Used by
     * bandwidth benchmarks whose simulated working sets exceed the
     * simulation host's RAM; functional contents are then undefined
     * for those regions (reads return zero). Off by default.
     */
    void setScratchWrites(bool on) { _scratchWrites = on; }
    bool scratchWrites() const { return _scratchWrites; }

  private:
    static constexpr std::uint64_t kFrameBytes = kPage4K;
    static constexpr std::uint64_t kRegionFrames = kPage2M / kPage4K;
    using Frame = std::array<std::uint8_t, kFrameBytes>;
    using Region = std::array<std::unique_ptr<Frame>, kRegionFrames>;

    /** The frame's storage, or null while it is untouched. */
    Frame *findFrame(std::uint64_t frame_number) const;
    /** The frame's storage, materialized (zeroed) on first touch. */
    Frame &touchFrame(std::uint64_t frame_number);

    std::uint64_t _capacity;
    bool _scratchWrites = false;
    std::size_t _framesTouched = 0;
    std::vector<std::unique_ptr<Region>> _regions;
};

} // namespace optimus::mem

#endif // OPTIMUS_MEM_HOST_MEMORY_HH

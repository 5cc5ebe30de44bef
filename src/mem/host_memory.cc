#include "mem/host_memory.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace optimus::mem {

HostMemory::Frame *
HostMemory::findFrame(std::uint64_t frame_number) const
{
    std::uint64_t r = frame_number / kRegionFrames;
    if (r >= _regions.size() || !_regions[r])
        return nullptr;
    return (*_regions[r])[frame_number % kRegionFrames].get();
}

HostMemory::Frame &
HostMemory::touchFrame(std::uint64_t frame_number)
{
    OPTIMUS_ASSERT(frame_number * kFrameBytes < _capacity,
                   "physical address beyond DRAM capacity");
    std::uint64_t r = frame_number / kRegionFrames;
    if (r >= _regions.size())
        _regions.resize(r + 1);
    if (!_regions[r])
        _regions[r] = std::make_unique<Region>();
    auto &slot = (*_regions[r])[frame_number % kRegionFrames];
    if (!slot) {
        slot = std::make_unique<Frame>(); // value-initialized: zeroed
        ++_framesTouched;
    }
    return *slot;
}

void
HostMemory::read(Hpa addr, void *dst, std::uint64_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    std::uint64_t a = addr.value();
    while (len > 0) {
        std::uint64_t frame = a / kFrameBytes;
        std::uint64_t off = a % kFrameBytes;
        std::uint64_t chunk = std::min(len, kFrameBytes - off);
        OPTIMUS_ASSERT(frame * kFrameBytes < _capacity,
                       "physical read beyond DRAM capacity");
        if (const Frame *f = findFrame(frame)) {
            std::memcpy(out, f->data() + off, chunk);
        } else {
            std::memset(out, 0, chunk); // untouched DRAM reads as zero
        }
        out += chunk;
        a += chunk;
        len -= chunk;
    }
}

void
HostMemory::write(Hpa addr, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    std::uint64_t a = addr.value();
    while (len > 0) {
        std::uint64_t frame = a / kFrameBytes;
        std::uint64_t off = a % kFrameBytes;
        std::uint64_t chunk = std::min(len, kFrameBytes - off);
        Frame *f = findFrame(frame);
        if (!f && !_scratchWrites)
            f = &touchFrame(frame);
        // Scratch mode drops writes to untouched frames (f stays null).
        if (f)
            std::memcpy(f->data() + off, in, chunk);
        in += chunk;
        a += chunk;
        len -= chunk;
    }
}

} // namespace optimus::mem

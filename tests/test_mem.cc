/**
 * @file
 * Memory substrate tests: sparse host memory, the frame allocator
 * with pinning, the generic page table, and the timed controller.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "mem/address.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"

using namespace optimus;
using namespace optimus::mem;

namespace {

TEST(AddressTest, TypedArithmetic)
{
    Gva a(0x1000);
    EXPECT_EQ((a + 0x234).value(), 0x1234u);
    EXPECT_EQ((a + 0x234) - a, 0x234u);
    EXPECT_EQ(Gva(0x12345678).pageBase(kPage4K).value(), 0x12345000u);
    EXPECT_EQ(Gva(0x12345678).pageOffset(kPage4K), 0x678u);
    EXPECT_EQ(Gva(0x12345678).pageBase(kPage2M).value(), 0x12200000u);
    EXPECT_LT(Gva(1), Gva(2));
}

TEST(HostMemoryTest, ReadWriteRoundTrip)
{
    HostMemory m(1ULL << 30);
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    m.write(Hpa(0x12345), data, sizeof(data));
    std::uint8_t back[100] = {};
    m.read(Hpa(0x12345), back, sizeof(back));
    EXPECT_EQ(0, std::memcmp(data, back, sizeof(data)));
}

TEST(HostMemoryTest, UntouchedMemoryReadsAsZeroWithoutMaterializing)
{
    HostMemory m(1ULL << 30);
    std::uint8_t buf[64];
    std::memset(buf, 0xff, sizeof(buf));
    m.read(Hpa(0x100000), buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(m.framesTouched(), 0u);
}

TEST(HostMemoryTest, CrossFrameAccess)
{
    HostMemory m(1ULL << 30);
    std::vector<std::uint8_t> data(3 * kPage4K);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13);
    Hpa base(kPage4K - 100); // straddles three frames
    m.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    m.read(base, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_EQ(m.framesTouched(), 4u);
}

TEST(HostMemoryTest, TypedValueAccessors)
{
    HostMemory m(1ULL << 30);
    m.writeValue<std::uint64_t>(Hpa(0x40), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.readValue<std::uint64_t>(Hpa(0x40)),
              0xdeadbeefcafef00dULL);
}

TEST(HostMemoryTest, ScratchModeDropsWritesToColdFrames)
{
    HostMemory m(1ULL << 30);
    std::uint8_t v = 7;
    m.write(Hpa(0), &v, 1); // warm frame 0
    m.setScratchWrites(true);
    m.write(Hpa(kPage4K), &v, 1); // cold frame: dropped
    m.write(Hpa(1), &v, 1);       // warm frame: kept
    EXPECT_EQ(m.framesTouched(), 1u);
    EXPECT_EQ(m.readValue<std::uint8_t>(Hpa(1)), 7);
    EXPECT_EQ(m.readValue<std::uint8_t>(Hpa(kPage4K)), 0);
}

TEST(HostMemoryTest, AccessesCrossRegionBoundaries)
{
    // Frames sit in 2 MiB regions: one write spans the last frame of
    // one region and the first of the next, and a read over a region
    // never touched returns zeros without materializing it.
    HostMemory m(1ULL << 30);
    std::vector<std::uint8_t> data(2 * kPage4K + 64);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    Hpa base(5 * kPage2M - kPage4K - 32);
    m.write(base, data.data(), data.size());
    EXPECT_EQ(m.framesTouched(), 4u);
    std::vector<std::uint8_t> back(data.size());
    m.read(base, back.data(), back.size());
    EXPECT_EQ(data, back);

    // A read that starts in the written frames and runs on into a
    // cold region sees the data, then zeros.
    std::vector<std::uint8_t> tail(2 * kPage2M, 0xee);
    m.read(Hpa(5 * kPage2M), tail.data(), tail.size());
    for (std::size_t i = 0; i < tail.size(); ++i) {
        std::uint8_t want =
            i < kPage4K + 32 ? data[kPage4K + 32 + i] : 0;
        ASSERT_EQ(tail[i], want) << i;
    }
    // Far above everything written, and the directory's end.
    std::uint8_t hi[16];
    std::memset(hi, 0xee, sizeof(hi));
    m.read(Hpa((1ULL << 30) - 8), hi, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(hi[i], 0);
    EXPECT_EQ(m.framesTouched(), 4u);
}

TEST(HostMemoryTest, ScratchModeDropsOnlyTheColdFramesOfOneWrite)
{
    HostMemory m(1ULL << 30);
    std::uint8_t v = 9;
    m.write(Hpa(kPage2M - 1), &v, 1); // warm the last frame of region 0
    m.setScratchWrites(true);
    // One write across the warm frame into cold region 1: the warm
    // part lands, the cold part is dropped.
    std::vector<std::uint8_t> data(64, 0x5a);
    m.write(Hpa(kPage2M - 32), data.data(), data.size());
    EXPECT_EQ(m.framesTouched(), 1u);
    EXPECT_EQ(m.readValue<std::uint8_t>(Hpa(kPage2M - 1)), 0x5a);
    EXPECT_EQ(m.readValue<std::uint8_t>(Hpa(kPage2M)), 0);
    // Turning scratch mode off materializes on write again.
    m.setScratchWrites(false);
    m.write(Hpa(kPage2M), data.data(), 1);
    EXPECT_EQ(m.framesTouched(), 2u);
    EXPECT_EQ(m.readValue<std::uint8_t>(Hpa(kPage2M)), 0x5a);
}

TEST(HostMemoryTest, MatchesAFlatModelUnderRandomAccess)
{
    // Random reads and writes of 1..9000 bytes over 24 MiB (crossing
    // frames and regions), checked against a flat byte array.
    HostMemory m(1ULL << 30);
    const std::uint64_t span = 24ULL << 20;
    std::vector<std::uint8_t> model(span + 9000, 0);
    std::vector<bool> written(model.size() / kPage4K + 1, false);
    std::mt19937_64 rng(7);
    for (int op = 0; op < 400; ++op) {
        std::uint64_t a = rng() % span;
        std::uint64_t len = 1 + rng() % 9000;
        std::vector<std::uint8_t> buf(len, 0xcc);
        if (rng() % 2) {
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng());
            m.write(Hpa(a), buf.data(), len);
            std::memcpy(model.data() + a, buf.data(), len);
            for (std::uint64_t f = a / kPage4K;
                 f <= (a + len - 1) / kPage4K; ++f)
                written[f] = true;
        } else {
            m.read(Hpa(a), buf.data(), len);
            ASSERT_EQ(0, std::memcmp(buf.data(), model.data() + a, len))
                << "op " << op << " at " << a;
        }
    }
    std::size_t frames = 0;
    for (bool w : written)
        frames += w;
    EXPECT_EQ(m.framesTouched(), frames);
}

TEST(FrameAllocatorTest, AllocateFreeReuse)
{
    FrameAllocator fa(Hpa(kPage4K), Hpa(16 * kPage4K));
    Hpa a = fa.allocate();
    Hpa b = fa.allocate();
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(fa.framesAllocated(), 2u);
    fa.free(a);
    Hpa c = fa.allocate(); // free list reuses a
    EXPECT_EQ(c.value(), a.value());
}

TEST(FrameAllocatorTest, ContiguousAllocationIsContiguous)
{
    FrameAllocator fa(Hpa(0), Hpa(1024 * kPage4K));
    Hpa base = fa.allocateContiguous(512);
    Hpa next = fa.allocate();
    EXPECT_EQ(next.value(), base.value() + 512 * kPage4K);
}

TEST(FrameAllocatorTest, PinningTracksAndBlocksFree)
{
    FrameAllocator fa(Hpa(0), Hpa(64 * kPage4K));
    Hpa f = fa.allocate();
    fa.pin(f);
    EXPECT_TRUE(fa.isPinned(f));
    EXPECT_EQ(fa.framesPinned(), 1u);
    EXPECT_DEATH(fa.free(f), "pinned");
    fa.unpin(f);
    fa.free(f);
    EXPECT_EQ(fa.framesAllocated(), 0u);
}

TEST(PageTableTest, MapTranslateUnmap)
{
    PageTable<Gva, Gpa> pt(kPage4K);
    pt.map(Gva(0x1000), Gpa(0x8000));
    auto t = pt.translate(Gva(0x1234));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->value(), 0x8234u);
    EXPECT_FALSE(pt.translate(Gva(0x2000)).has_value());
    pt.unmap(Gva(0x1000));
    EXPECT_FALSE(pt.translate(Gva(0x1234)).has_value());
}

TEST(PageTableTest, WritePermissionEnforced)
{
    PageTable<Iova, Hpa> pt(kPage2M);
    pt.map(Iova(0), Hpa(kPage2M), PagePerms{true, false});
    EXPECT_TRUE(pt.translate(Iova(0x100), false).has_value());
    EXPECT_FALSE(pt.translate(Iova(0x100), true).has_value());
}

TEST(PageTableTest, HugePageGranularity)
{
    PageTable<Iova, Hpa> pt(kPage2M);
    pt.map(Iova(0), Hpa(4 * kPage2M));
    auto t = pt.translate(Iova(kPage2M - 1));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->value(), 4 * kPage2M + kPage2M - 1);
    // The next huge page is a separate mapping.
    EXPECT_FALSE(pt.translate(Iova(kPage2M)).has_value());
}

TEST(PageTableTest, ReadPermissionEnforced)
{
    PageTable<Iova, Hpa> pt(kPage4K);
    pt.map(Iova(0x3000), Hpa(0x7000), PagePerms{false, true});
    EXPECT_FALSE(pt.translate(Iova(0x3010), false).has_value());
    auto w = pt.translate(Iova(0x3010), true);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->value(), 0x7010u);
    auto e = pt.lookup(Iova(0x3fff));
    ASSERT_TRUE(e.has_value());
    EXPECT_FALSE(e->perms.readable);
    EXPECT_TRUE(e->perms.writable);
    EXPECT_EQ(e->base.value(), 0x7000u);
}

TEST(PageTableTest, HpaZeroIsAMapping)
{
    PageTable<Gpa, Hpa> pt(kPage2M);
    pt.map(Gpa(kPage2M), Hpa(0));
    auto t = pt.translate(Gpa(kPage2M + 5));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->value(), 5u);
    EXPECT_EQ(pt.size(), 1u);
}

/** Map a 10 GiB run of 2 MiB pages (an EPT) or 40 MiB of 4 KiB pages
 *  (an IOPT slice), so the table grows through many leaves; remap
 *  and unmap parts and check every page and the count. */
void
growRemapUnmap(std::uint64_t page, std::uint64_t pages,
               std::uint64_t from_base)
{
    PageTable<Iova, Hpa> pt(page);
    auto target = [&](std::uint64_t i, std::uint64_t gen) {
        return Hpa((gen * pages + i + 1) * page);
    };
    for (std::uint64_t i = 0; i < pages; ++i)
        pt.map(Iova(from_base + i * page), target(i, 0));
    EXPECT_EQ(pt.size(), pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
        auto t = pt.translate(Iova(from_base + i * page + page - 1));
        ASSERT_TRUE(t.has_value()) << i;
        ASSERT_EQ(t->value(), target(i, 0).value() + page - 1) << i;
    }
    // Remap every third page read-only: the count stays.
    for (std::uint64_t i = 0; i < pages; i += 3)
        pt.map(Iova(from_base + i * page), target(i, 1),
               PagePerms{true, false});
    EXPECT_EQ(pt.size(), pages);
    // Unmap every fifth page.
    std::uint64_t unmapped = 0;
    for (std::uint64_t i = 0; i < pages; i += 5, ++unmapped)
        pt.unmap(Iova(from_base + i * page));
    pt.unmap(Iova(from_base)); // twice: no effect
    pt.unmap(Iova(from_base + pages * page)); // never mapped
    EXPECT_EQ(pt.size(), pages - unmapped);
    for (std::uint64_t i = 0; i < pages; ++i) {
        Iova a(from_base + i * page + 8);
        if (i % 5 == 0) {
            ASSERT_FALSE(pt.lookup(a).has_value()) << i;
            continue;
        }
        bool ro = i % 3 == 0;
        auto r = pt.translate(a, false);
        ASSERT_TRUE(r.has_value()) << i;
        ASSERT_EQ(r->value(), target(i, ro ? 1 : 0).value() + 8) << i;
        ASSERT_EQ(pt.translate(a, true).has_value(), !ro) << i;
    }
    EXPECT_FALSE(pt.lookup(Iova(from_base - page)).has_value());
    EXPECT_FALSE(pt.lookup(Iova(from_base + pages * page)).has_value());
}

TEST(PageTableTest, GrowRemapUnmapHugePages)
{
    growRemapUnmap(kPage2M, 5120, 0);
}

TEST(PageTableTest, GrowRemapUnmapSmallPagesAtAHighBase)
{
    // An IOVA slice base well above 4 GiB, not leaf aligned.
    growRemapUnmap(kPage4K, 10240, (65ULL << 30) + 77 * kPage4K);
}

TEST(PageTableTest, MatchesAMapUnderRandomOperations)
{
    // Sparse keys across a 2^40 space (one mapping per leaf) and
    // dense keys in a small range, mapped, remapped and unmapped at
    // random, checked against std::map after every step.
    PageTable<Gva, Gpa> pt(kPage4K);
    std::map<std::uint64_t, std::pair<std::uint64_t, bool>> model;
    std::mt19937_64 rng(11);
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t vpn = rng() % 2 ? rng() % (1ULL << 28)
                                      : 0x12345 + rng() % 3000;
        Gva va(vpn * kPage4K);
        if (rng() % 4 == 0) {
            pt.unmap(va);
            model.erase(vpn);
        } else {
            std::uint64_t to = (rng() % (1ULL << 30)) * kPage4K;
            bool wr = rng() % 2;
            pt.map(va, Gpa(to), PagePerms{true, wr});
            model[vpn] = {to, wr};
        }
        ASSERT_EQ(pt.size(), model.size());
        std::uint64_t probe = rng() % 2 ? vpn : 0x12345 + rng() % 3000;
        auto e = pt.lookup(Gva(probe * kPage4K + 1));
        auto it = model.find(probe);
        ASSERT_EQ(e.has_value(), it != model.end()) << op;
        if (e) {
            ASSERT_EQ(e->base.value(), it->second.first) << op;
            ASSERT_EQ(e->perms.writable, it->second.second) << op;
        }
    }
    for (const auto &kv : model) {
        auto t = pt.translate(Gva(kv.first * kPage4K + 3), true);
        ASSERT_EQ(t.has_value(), kv.second.second);
        if (t) {
            ASSERT_EQ(t->value(), kv.second.first + 3);
        }
    }
}

TEST(MemoryControllerTest, LatencyAndSerialization)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MemoryController mc(eq, p);

    std::vector<sim::Tick> done;
    mc.access(64, false, [&]() { done.push_back(eq.now()); });
    mc.access(64, false, [&]() { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 2u);
    // First access: serialization + latency.
    sim::Tick ser = static_cast<sim::Tick>(
        64.0 / (p.dramGbps / sim::kTickNs));
    EXPECT_EQ(done[0], ser + p.dramLatency);
    // Second access waits for the first's serialization slot.
    EXPECT_EQ(done[1], 2 * ser + p.dramLatency);
}

} // namespace

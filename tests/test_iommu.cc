/**
 * @file
 * IOMMU and IOTLB tests: the direct-mapped set geometry the paper
 * reverse-engineers (bits 21-29 for 2 MB pages), conflict behaviour
 * that motivates the 128 MB inter-slice gap, page-walk timing and
 * queueing, and fault reporting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "iommu/iommu.hh"
#include "iommu/iotlb.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"

using namespace optimus;
using namespace optimus::iommu;
using optimus::mem::Hpa;
using optimus::mem::Iova;

namespace {

TEST(IotlbTest, SetIndexUses2MPageBits21To29)
{
    Iotlb tlb(512, mem::kPage2M);
    // Bits below 21 do not affect the set.
    EXPECT_EQ(tlb.setIndex(Iova(0)), tlb.setIndex(Iova(0x1fffff)));
    // Bit 21 is the lowest index bit.
    EXPECT_EQ(tlb.setIndex(Iova(1ULL << 21)), 1u);
    EXPECT_EQ(tlb.setIndex(Iova(5ULL << 21)), 5u);
    // Index wraps at 512 sets: pages 2^9 apart conflict
    // (p1 == p2 mod 2^9, exactly the paper's conflict rule).
    EXPECT_EQ(tlb.setIndex(Iova(0)), tlb.setIndex(Iova(512ULL << 21)));
}

TEST(IotlbTest, SetIndexUses4KPageBits12To20)
{
    Iotlb tlb(512, mem::kPage4K);
    EXPECT_EQ(tlb.setIndex(Iova(0)), tlb.setIndex(Iova(0xfff)));
    EXPECT_EQ(tlb.setIndex(Iova(1ULL << 12)), 1u);
    EXPECT_EQ(tlb.setIndex(Iova(0)),
              tlb.setIndex(Iova(512ULL << 12)));
}

TEST(IotlbTest, HitAfterInsertMissBefore)
{
    Iotlb tlb(512, mem::kPage2M);
    EXPECT_FALSE(tlb.lookup(Iova(0x12345678)).has_value());
    EXPECT_EQ(tlb.misses(), 1u);
    tlb.insert(Iova(0x12200000), Hpa(0x40000000));
    auto hit = tlb.lookup(Iova(0x12345678));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->value(), 0x40000000u + 0x145678u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(IotlbTest, ConflictingPagesEvictEachOther)
{
    Iotlb tlb(512, mem::kPage2M);
    Iova a(0);
    Iova b(512ULL << 21); // same set index as a
    tlb.insert(a, Hpa(0x1000000));
    tlb.insert(b, Hpa(0x2000000));
    EXPECT_EQ(tlb.conflictEvictions(), 1u);
    EXPECT_FALSE(tlb.lookup(a).has_value()); // evicted
    EXPECT_TRUE(tlb.lookup(b).has_value());
}

TEST(IotlbTest, The128MGapSeparatesSliceSetIndices)
{
    // The conflict-mitigation design point: 64 GB slices are exact
    // multiples of the 1 GB IOTLB reach, so equal page offsets in
    // different slices collide; a 128 MB gap shifts the set index by
    // 64 sets per slice.
    Iotlb tlb(512, mem::kPage2M);
    std::uint64_t slice = 64ULL << 30;
    std::uint64_t gap = 128ULL << 20;
    // Without the gap: same page offset in every slice collides.
    EXPECT_EQ(tlb.setIndex(Iova(1 * slice)),
              tlb.setIndex(Iova(2 * slice)));
    // With the gap: distinct sets for the eight accelerators.
    for (std::uint64_t i = 1; i < 8; ++i) {
        EXPECT_NE(tlb.setIndex(Iova(1 * (slice + gap))),
                  tlb.setIndex(Iova((i + 1) * (slice + gap))))
            << "slices 0 and " << i;
    }
    EXPECT_EQ(tlb.setIndex(Iova(2 * (slice + gap))) -
                  tlb.setIndex(Iova(1 * (slice + gap))),
              64u);
}

TEST(IotlbTest, InvalidateAllAndSingle)
{
    Iotlb tlb(512, mem::kPage2M);
    tlb.insert(Iova(0), Hpa(0));
    tlb.insert(Iova(1ULL << 21), Hpa(mem::kPage2M));
    tlb.invalidate(Iova(0x100)); // covers page 0
    EXPECT_FALSE(tlb.lookup(Iova(0)).has_value());
    EXPECT_TRUE(tlb.lookup(Iova(1ULL << 21)).has_value());
    tlb.invalidateAll();
    EXPECT_FALSE(tlb.lookup(Iova(1ULL << 21)).has_value());
}

class IommuFixture : public ::testing::Test
{
  protected:
    IommuFixture() : iommu(eq, params) {}

    sim::EventQueue eq;
    sim::PlatformParams params;
    Iommu iommu{eq, params};
};

TEST_F(IommuFixture, HitIsFastMissPaysWalk)
{
    iommu.pageTable().map(Iova(0), Hpa(mem::kPage2M));

    sim::Tick first_done = 0;
    iommu.translate(Iova(0x40), false, [&](TranslationResult r) {
        EXPECT_FALSE(r.fault);
        EXPECT_EQ(r.hpa.value(), mem::kPage2M + 0x40);
        first_done = eq.now();
    });
    eq.runAll();
    // First access misses: full walk latency.
    EXPECT_GE(first_done, params.pageWalkLatency);

    sim::Tick second_done = 0;
    sim::Tick start = eq.now();
    iommu.translate(Iova(0x80), false, [&](TranslationResult r) {
        EXPECT_FALSE(r.fault);
        second_done = eq.now() - start;
    });
    eq.runAll();
    // Second access hits: a couple of fabric cycles.
    EXPECT_LT(second_done, 20 * sim::kTickNs);
}

TEST_F(IommuFixture, UnmappedAccessFaults)
{
    int faults_seen = 0;
    iommu.setFaultHandler(
        [&](Iova, bool) { ++faults_seen; });
    bool fault_result = false;
    iommu.translate(Iova(0xdead000000), true,
                    [&](TranslationResult r) {
                        fault_result = r.fault;
                    });
    eq.runAll();
    EXPECT_TRUE(fault_result);
    EXPECT_EQ(faults_seen, 1);
    EXPECT_EQ(iommu.faults(), 1u);
}

TEST_F(IommuFixture, ReadOnlyPageFaultsOnWrite)
{
    iommu.pageTable().map(Iova(0), Hpa(mem::kPage2M),
                          mem::PagePerms{true, false});
    bool read_fault = true;
    bool write_fault = false;
    iommu.translate(Iova(0), false, [&](TranslationResult r) {
        read_fault = r.fault;
    });
    iommu.translate(Iova(0), true, [&](TranslationResult r) {
        write_fault = r.fault;
    });
    eq.runAll();
    EXPECT_FALSE(read_fault);
    EXPECT_TRUE(write_fault);
}

TEST_F(IommuFixture, ConcurrentWalksQueueBeyondWalkerCapacity)
{
    // Map eight pages; fire eight concurrent misses. With two
    // concurrent walkers, completions arrive in four waves.
    std::vector<sim::Tick> done;
    for (int i = 0; i < 8; ++i) {
        iommu.pageTable().map(Iova(i * mem::kPage2M),
                              Hpa((i + 1) * mem::kPage2M));
    }
    for (int i = 0; i < 8; ++i) {
        iommu.translate(Iova(i * mem::kPage2M), false,
                        [&](TranslationResult r) {
                            EXPECT_FALSE(r.fault);
                            done.push_back(eq.now());
                        });
    }
    eq.runAll();
    ASSERT_EQ(done.size(), 8u);
    EXPECT_NEAR(static_cast<double>(done.front()),
                static_cast<double>(params.pageWalkLatency), 1000.0);
    // The last completion waited behind three walk generations.
    EXPECT_GE(done.back(), 4 * params.pageWalkLatency);
    EXPECT_EQ(iommu.walks(), 8u);
}

TEST_F(IommuFixture, DistinctMissesQueueBehindTwoWalkersAndCoalesce)
{
    // Four distinct pages miss at once, two accesses each (the second
    // coalesces): four walks on two walkers, completing in two waves,
    // each page's waiters in arrival order.
    for (int i = 0; i < 4; ++i) {
        iommu.pageTable().map(Iova(i * mem::kPage2M),
                              Hpa((10 + i) * mem::kPage2M));
    }
    std::vector<std::pair<int, sim::Tick>> done;
    for (int rep = 0; rep < 2; ++rep) {
        for (int i = 0; i < 4; ++i) {
            std::uint64_t off = 0x40 * (rep + 1);
            iommu.translate(Iova(i * mem::kPage2M + off), false,
                            [&, i, off](TranslationResult r) {
                                EXPECT_FALSE(r.fault);
                                EXPECT_EQ(r.hpa.value(),
                                          (10 + i) * mem::kPage2M + off);
                                done.emplace_back(i, eq.now());
                            });
        }
    }
    eq.runAll();
    EXPECT_EQ(iommu.walks(), 4u);
    EXPECT_EQ(iommu.coalescedWalks(), 4u);
    ASSERT_EQ(done.size(), 8u);
    const std::vector<int> order{0, 0, 1, 1, 2, 2, 3, 3};
    for (std::size_t k = 0; k < done.size(); ++k)
        EXPECT_EQ(done[k].first, order[k]) << k;
    EXPECT_EQ(done[0].second, done[3].second); // first wave
    EXPECT_EQ(done[4].second, done[7].second); // second wave
    EXPECT_EQ(done[4].second - done[0].second, params.pageWalkLatency);
}

TEST_F(IommuFixture, OneWaiterFaultsAmongAWalksWaiters)
{
    // A read-only page: a read, a write and a read coalesce onto one
    // walk. Only the write faults, and the others still translate;
    // the fault does not disturb a second walk in flight.
    iommu.pageTable().map(Iova(0), Hpa(mem::kPage2M),
                          mem::PagePerms{true, false});
    iommu.pageTable().map(Iova(mem::kPage2M), Hpa(2 * mem::kPage2M));
    std::vector<Iova> faulted;
    iommu.setFaultHandler([&](Iova a, bool) { faulted.push_back(a); });
    std::vector<std::string> log;
    auto record = [&](const char *name) {
        return [&log, name](TranslationResult r) {
            log.push_back(std::string(name) + (r.fault ? ":fault" : ":ok"));
        };
    };
    iommu.translate(Iova(0x10), false, record("r0"));
    iommu.translate(Iova(mem::kPage2M + 0x10), true, record("w1"));
    iommu.translate(Iova(0x20), true, record("w0"));
    iommu.translate(Iova(0x30), false, record("r0b"));
    eq.runAll();
    EXPECT_EQ(iommu.walks(), 2u);
    EXPECT_EQ(iommu.coalescedWalks(), 2u);
    EXPECT_EQ(log, (std::vector<std::string>{"r0:ok", "w0:fault",
                                             "r0b:ok", "w1:ok"}));
    ASSERT_EQ(faulted.size(), 1u);
    EXPECT_EQ(faulted[0].value(), 0x20u);
    EXPECT_EQ(iommu.faults(), 1u);
    // The read-only entry reached the IOTLB: a later write faults on
    // the hit path, a read hits.
    bool wf = false, rf = true;
    iommu.translate(Iova(0x40), true,
                    [&](TranslationResult r) { wf = r.fault; });
    iommu.translate(Iova(0x40), false,
                    [&](TranslationResult r) { rf = r.fault; });
    eq.runAll();
    EXPECT_TRUE(wf);
    EXPECT_FALSE(rf);
    EXPECT_EQ(iommu.walks(), 2u);
}

TEST_F(IommuFixture, WalkSlotsAreReusedAcrossWaves)
{
    // Waves of misses over six pages in one IOTLB set (512 pages
    // apart): every wave walks each page again, reusing the finished
    // walks' slots. A completion that misses
    // again on its own page starts a fresh walk rather than joining
    // the one just finished.
    iommu.setPageBytes(mem::kPage4K);
    const std::uint64_t stride = 512 * mem::kPage4K;
    for (int i = 0; i < 6; ++i)
        iommu.pageTable().map(Iova(i * stride), Hpa((i + 1) * stride));
    int ok = 0;
    for (int wave = 0; wave < 5; ++wave) {
        iommu.iotlb().invalidateAll(); // the last wave's page stays
        for (int i = 0; i < 6; ++i) {
            iommu.translate(Iova(i * stride + 8 * wave), false,
                            [&, i, wave](TranslationResult r) {
                                ASSERT_FALSE(r.fault);
                                EXPECT_EQ(r.hpa.value(),
                                          (i + 1) * stride + 8 * wave);
                                ++ok;
                            });
        }
        eq.runAll();
    }
    EXPECT_EQ(ok, 30);
    EXPECT_EQ(iommu.walks(), 30u);
    EXPECT_EQ(iommu.coalescedWalks(), 0u);

    // Re-entrant miss from inside a completion.
    iommu.iotlb().invalidateAll();
    int inner = 0;
    iommu.translate(Iova(0), false, [&](TranslationResult) {
        iommu.iotlb().invalidateAll();
        iommu.translate(Iova(4), false, [&](TranslationResult r) {
            EXPECT_FALSE(r.fault);
            EXPECT_EQ(r.hpa.value(), stride + 4);
            ++inner;
        });
    });
    eq.runAll();
    EXPECT_EQ(inner, 1);
    EXPECT_EQ(iommu.walks(), 32u);
    EXPECT_EQ(iommu.coalescedWalks(), 0u);
}

TEST_F(IommuFixture, SetPageBytesRebuildsStructures)
{
    iommu.pageTable().map(Iova(0), Hpa(mem::kPage2M));
    iommu.setPageBytes(mem::kPage4K);
    EXPECT_EQ(iommu.pageBytes(), mem::kPage4K);
    EXPECT_EQ(iommu.pageTable().size(), 0u); // mappings discarded
    EXPECT_EQ(iommu.iotlb().pageBytes(), mem::kPage4K);
}

} // namespace

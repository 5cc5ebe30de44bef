/**
 * @file
 * Hypervisor edge cases and failure injection: concurrent
 * virtual-accelerator creation racing on the VCU's staged registers,
 * DMA faults surfacing as job errors, guest soft reset semantics,
 * completion-handler delivery, migration error paths, and guest
 * register or memory contents that must fail only their own job.
 */

#include <gtest/gtest.h>

#include <set>

#include "accel/algo/graph.hh"
#include "accel/image_accels.hh"
#include "accel/linkedlist_accel.hh"
#include "accel/sssp_accel.hh"
#include "accel/streaming_accelerator.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

TEST(VcuSerializationTest, ConcurrentSchedulingCommitsBothEntries)
{
    // Two tenants created back-to-back: their offset-table
    // programming sequences share the VCU's staged registers and
    // must not interleave (regression test for the serialized
    // management queue).
    System sys(makeOptimusConfig("LL", 8));
    std::vector<AccelHandle *> handles;
    for (std::uint32_t i = 0; i < 8; ++i)
        handles.push_back(&sys.attach(i, 1ULL << 30));
    handles[0]->pumpUntil([&]() {
        for (std::uint32_t i = 0; i < 8; ++i) {
            if (!sys.platform.monitor()
                     ->auditor(i)
                     .offsetEntry()
                     .valid) {
                return false;
            }
        }
        return true;
    });

    std::set<std::uint64_t> slice_bases;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const auto &e =
            sys.platform.monitor()->auditor(i).offsetEntry();
        EXPECT_EQ(e.window, sys.platform.params().sliceBytes) << i;
        // gvaBase + offset = slice base; all eight distinct.
        slice_bases.insert(e.gvaBase + e.offset);
    }
    EXPECT_EQ(slice_bases.size(), 8u);
}

TEST(FaultInjectionTest, UnregisteredWindowAddressErrorsTheJob)
{
    // Point AES at a reserved-but-never-registered part of its own
    // window: the auditor admits it (in-window), the IOMMU faults,
    // and the job must surface ERROR rather than hang.
    System sys(makeOptimusConfig("AES", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    mem::Gva hole = h.vaccel().windowBase() + (1ULL << 30);
    h.writeAppReg(accel::stream_reg::kSrc, hole.value());
    h.writeAppReg(accel::stream_reg::kDst, hole.value());
    h.writeAppReg(accel::stream_reg::kLen, 4096);
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);
    EXPECT_GT(sys.platform.iommu().faults(), 0u);
}

TEST(FaultInjectionTest, JobRestartsCleanlyAfterError)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);

    // First job: walk into an unregistered hole -> ERROR.
    mem::Gva hole = h.vaccel().windowBase() + (2ULL << 30);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead, hole.value());
    h.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);

    // Second job on the same virtual accelerator: valid list, DONE.
    auto layout = workload::buildLinkedList(h, 200, 9);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.reset();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(h.result(), layout.checksum);
}

TEST(CompletionHandlerTest, FiresOncePerCompletionWithStatus)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto layout = workload::buildLinkedList(h, 100, 10);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());

    int calls = 0;
    accel::Status seen = accel::Status::kIdle;
    h.vaccel().setCompletionHandler([&](accel::Status st) {
        ++calls;
        seen = st;
    });
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(seen, accel::Status::kDone);
}

TEST(SoftResetTest, ClearsVisibleStateButKeepsRegisters)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto layout = workload::buildLinkedList(h, 5000, 11);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.start();
    sys.run(sys.eq.now() + 100 * sim::kTickUs);
    ASSERT_EQ(sys.hv.peekStatus(h.vaccel()),
              accel::Status::kRunning);

    h.reset();
    EXPECT_EQ(sys.hv.peekStatus(h.vaccel()), accel::Status::kIdle);
    // Registers survive a soft reset; the job can be restarted.
    EXPECT_EQ(h.mmioRead(accel::reg::appReg(
                  accel::LinkedlistAccel::kRegHead)),
              layout.head.value());
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(h.result(), layout.checksum);
}

TEST(MigrationEdgeTest, MigrateToSameSlotIsRejected)
{
    System sys(makeOptimusConfig("LL", 2));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    bool result = true;
    sys.hv.migrate(h.vaccel(), 0, [&](bool ok) { result = ok; });
    EXPECT_FALSE(result);
}

TEST(MigrationEdgeTest, PassthroughCannotMigrate)
{
    System sys(makePassthroughConfig("LL"));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    bool result = true;
    sys.hv.migrate(h.vaccel(), 0, [&](bool ok) { result = ok; });
    EXPECT_FALSE(result);
}

TEST(StateSizeTest, SsspStateSizeTracksGraphSize)
{
    // STATE_SIZE is register-dependent for SSSP (frontier capacity
    // scales with the vertex count) — the guest reads it after
    // programming, as the driver flow prescribes.
    System sys(makeOptimusConfig("SSSP", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    h.writeAppReg(accel::SsspAccel::kRegNvert, 1000);
    std::uint64_t small = h.mmioRead(accel::reg::kStateSize);
    h.writeAppReg(accel::SsspAccel::kRegNvert, 100000);
    std::uint64_t large = h.mmioRead(accel::reg::kStateSize);
    EXPECT_GT(large, small);
    EXPECT_GE(large, 8ULL * 100000);
}

/**
 * Edge destinations are guest data. Rewrite 64 edges of an SSSP graph
 * to point 64 past NVERT, with that dist word mapped and above any
 * candidate distance: the job ends in kError with kDeviceError instead
 * of the device indexing past its next-round bitmap, and a co-tenant
 * time-sharing the accelerator still completes with a verified result.
 */
TEST(GuestInputTest, SsspEdgePastNvertFailsOnlyThatJob)
{
    System sys(makeOptimusConfig("SSSP", 1));
    AccelHandle &victim = sys.attach(0, 1ULL << 30);
    AccelHandle &other = sys.attach(0, 1ULL << 30);

    algo::CsrGraph g = algo::makeRandomGraph(64, 512, 63, 5);
    workload::GraphLayout layout = workload::placeGraph(victim, g, 0);
    const std::uint32_t bad = layout.vertices + 64;
    for (std::uint64_t e = 0; e < 64; ++e)
        victim.memWrite(layout.edges + 8 * e, &bad, sizeof(bad));
    const std::uint32_t inf = algo::kDistInf;
    victim.memWrite(layout.dist + 4ULL * bad, &inf, sizeof(inf));
    workload::programSssp(victim, layout);
    victim.setupStateBuffer();
    auto wo = workload::Workload::create("SSSP", other, 4096, 6);
    wo->program();
    other.setupStateBuffer();

    victim.start();
    other.start();
    EXPECT_EQ(victim.wait(), accel::Status::kError);
    EXPECT_NE(victim.errorStatus() & accel::errst::kDeviceError, 0u);
    EXPECT_EQ(other.wait(), accel::Status::kDone);
    EXPECT_TRUE(wo->verify());
}

/** A row-filter width (APP3) and LEN as a guest might program them. */
struct RowGeometry
{
    std::uint64_t width;
    std::uint64_t len;
};

class RowFilterGeometryTest
    : public ::testing::TestWithParam<RowGeometry>
{
};

/**
 * The row filter's line buffers hold a nonzero multiple of 64 bytes up
 * to 8192 per row, and LEN must be whole rows. Anything else a guest
 * writes ends its job in kError with kDeviceError (it used to panic
 * the simulator); a co-tenant sharing the accelerator is unaffected.
 */
TEST_P(RowFilterGeometryTest, BadGeometryFailsOnlyThatJob)
{
    const RowGeometry geo = GetParam();
    System sys(makeOptimusConfig("GAU", 1));
    AccelHandle &victim = sys.attach(0, 1ULL << 30);
    AccelHandle &other = sys.attach(0, 1ULL << 30);

    auto wv = workload::Workload::create("GAU", victim, 64 * 1024, 3);
    wv->program();
    victim.writeAppReg(accel::RowFilterAccel::kRegWidth, geo.width);
    victim.writeAppReg(accel::stream_reg::kLen, geo.len);
    victim.setupStateBuffer();
    auto wo = workload::Workload::create("GAU", other, 16 * 1024, 4);
    wo->program();
    other.setupStateBuffer();

    victim.start();
    other.start();
    EXPECT_EQ(victim.wait(), accel::Status::kError);
    EXPECT_NE(victim.errorStatus() & accel::errst::kDeviceError, 0u);
    EXPECT_EQ(other.wait(), accel::Status::kDone);
    EXPECT_TRUE(wo->verify());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RowFilterGeometryTest,
    ::testing::Values(RowGeometry{100, 6400},   // not a line multiple
                      RowGeometry{0, 4096},     // zero width
                      RowGeometry{8256, 8256},  // wider than 8192
                      RowGeometry{1024, 3136})); // LEN not whole rows

} // namespace

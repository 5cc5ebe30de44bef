/**
 * @file
 * Preemption-interface tests (Section 4.2): drain-save-resume round
 * trips preserve results for all 14 apps; forced reset fires on
 * accelerators that cannot cede; completion during a drain is
 * handled; the state buffer lives in guest DMA memory and really
 * receives the context; and a guest that corrupts its saved context
 * fails only its own job.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/linkedlist_accel.hh"
#include "accel/membench_accel.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

/** Preempt/resume in the middle of any app's job: result intact. */
class PreemptRoundTripTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PreemptRoundTripTest, JobSurvivesContextSwitches)
{
    const std::string app = GetParam();
    // Two tenants on one physical accelerator with a short slice:
    // the first runs a verifiable job across several context
    // switches; the second idles (so switches still happen via the
    // round-robin timer, exercising save AND restore).
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 200 * sim::kTickUs; // many switches per job
    System sys(makeOptimusConfig(app, 1, p));

    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);

    auto wl = workload::Workload::create(app, h1, 512 * 1024, 17);
    wl->program();
    h1.setupStateBuffer();
    h2.setupStateBuffer();

    auto wl2 = workload::Workload::create(app, h2, 512 * 1024, 18);
    wl2->program();

    h1.start();
    h2.start();
    EXPECT_EQ(h1.wait(), accel::Status::kDone) << app;
    EXPECT_EQ(h2.wait(), accel::Status::kDone) << app;
    EXPECT_TRUE(wl->verify()) << app;
    EXPECT_TRUE(wl2->verify()) << app;
    EXPECT_GE(sys.hv.contextSwitches(), 1u) << app;
    EXPECT_EQ(sys.hv.forcedResets(), 0u) << app;
}

// SW restarts on resume; every other app carries its state through
// the guest buffer. All 14 must survive multiplexing.
INSTANTIATE_TEST_SUITE_P(Apps, PreemptRoundTripTest,
                         ::testing::Values("AES", "MD5", "SHA",
                                           "FIR", "GRN", "GRS",
                                           "GAU", "SBL", "RSD",
                                           "SW", "SSSP", "LL", "MB",
                                           "BTC"));

TEST(PreemptionTest, StateBufferReceivesTheContext)
{
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    System sys(makeOptimusConfig("LL", 1, p));
    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);

    auto layout = workload::buildLinkedList(h1, 100000, 5);
    h1.writeAppReg(accel::LinkedlistAccel::kRegHead,
                   layout.head.value());
    h1.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);

    // Remember where the state buffer landed.
    h1.setupStateBuffer();
    std::uint64_t buf_gva =
        h1.mmioRead(accel::reg::kStateBuf);
    ASSERT_NE(buf_gva, 0u);
    h2.setupStateBuffer();

    // Tenant 2 runs a long walk of its own so the round-robin timer
    // actually has someone to switch to.
    auto layout2 = workload::buildLinkedList(h2, 100000, 6);
    h2.writeAppReg(accel::LinkedlistAccel::kRegHead,
                   layout2.head.value());
    h2.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    h2.start();
    h1.start();
    // Run until at least one context switch has happened.
    h1.pumpUntil(
        [&]() { return sys.hv.contextSwitches() >= 1; });

    // The saved blob's header is in guest memory: status RUNNING.
    std::uint64_t saved_status =
        h1.process().readValue<std::uint64_t>(mem::Gva(buf_gva));
    EXPECT_EQ(saved_status,
              static_cast<std::uint64_t>(accel::Status::kRunning));
    EXPECT_EQ(h1.wait(), accel::Status::kDone);
    EXPECT_EQ(h1.result(), layout.checksum);
}

TEST(PreemptionTest, AcceleratorWithoutStateBufferIsForciblyReset)
{
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    System sys(makeOptimusConfig("MB", 1, p));
    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);

    // h1 never sets a state buffer: it cannot cede on preempt.
    auto wl1 = workload::Workload::create("MB", h1, 8ULL << 20, 1);
    wl1->program();
    h1.start();

    auto wl2 = workload::Workload::create("MB", h2, 1ULL << 20, 2);
    wl2->program();
    h2.setupStateBuffer();
    h2.start();

    // The scheduler must recover: h2 completes, h1 was reset.
    EXPECT_EQ(h2.wait(), accel::Status::kDone);
    EXPECT_GT(sys.hv.forcedResets(), 0u);
    EXPECT_EQ(sys.hv.peekStatus(h1.vaccel()),
              accel::Status::kError);
}

TEST(PreemptionTest, CompletionDuringDrainYieldsDone)
{
    // A job that finishes exactly while a preempt is in flight must
    // surface DONE (not lose the result).
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 50 * sim::kTickUs;
    System sys(makeOptimusConfig("LL", 1, p));
    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);
    h2.setupStateBuffer();

    // Short walks keep finishing near slice boundaries.
    for (int trial = 0; trial < 5; ++trial) {
        auto layout = workload::buildLinkedList(h1, 120, 50 + trial);
        h1.writeAppReg(accel::LinkedlistAccel::kRegHead,
                       layout.head.value());
        h1.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
        h1.setupStateBuffer();
        h1.start();
        EXPECT_EQ(h1.wait(), accel::Status::kDone);
        EXPECT_EQ(h1.result(), layout.checksum);
    }
}

TEST(PreemptionTest, SixteenTenantsAllComplete)
{
    // Scalability of temporal multiplexing: 16 virtual accelerators
    // on one physical LL, every job correct.
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    System sys(makeOptimusConfig("LL", 1, p));

    std::vector<AccelHandle *> handles;
    std::vector<workload::LinkedListLayout> layouts;
    for (int i = 0; i < 16; ++i) {
        handles.push_back(&sys.attach(0, 1ULL << 30));
        layouts.push_back(
            workload::buildLinkedList(*handles.back(), 3000,
                                      900 + i));
        handles.back()->writeAppReg(
            accel::LinkedlistAccel::kRegHead,
            layouts.back().head.value());
        handles.back()->writeAppReg(
            accel::LinkedlistAccel::kRegCount, 0);
        handles.back()->setupStateBuffer();
        handles.back()->start();
    }
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(handles[static_cast<std::size_t>(i)]->wait(),
                  accel::Status::kDone)
            << i;
        EXPECT_EQ(handles[static_cast<std::size_t>(i)]->result(),
                  layouts[static_cast<std::size_t>(i)].checksum)
            << i;
    }
    EXPECT_EQ(sys.hv.forcedResets(), 0u);
}

/**
 * A START that traps while its vaccel is being switched out — after
 * the PREEMPT, before the SAVED doorbell — must run the new job. The
 * saved context belongs to the finished job, and START discards it:
 * resuming it instead would report DONE with the old job's result
 * and never run the new one. Tenant A finishes job 1 and has job 2
 * (a different input) programmed; tenant B's START makes the slice
 * timer switch A out; A's START lands at every 20 ns step from the
 * start of the switch. Fresh inputs per job make verify() the oracle.
 */
class LostStartTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LostStartTest, StartDuringSwitchOutRunsTheNewJob)
{
    const std::string app = GetParam();
    const sim::Tick kStep = 20 * sim::kTickNs;
    const int kOffsets = 261;
    int failures = 0;
    for (int k = 0; k < kOffsets; ++k) {
        sim::PlatformParams p = sim::PlatformParams::harpDefaults();
        p.timeSlice = 100 * sim::kTickUs;
        System sys(makeOptimusConfig(app, 1, p));
        AccelHandle &a = sys.attach(0, 1ULL << 30);
        AccelHandle &b = sys.attach(0, 1ULL << 30);

        auto job1 = workload::Workload::create(app, a, 4096, 11);
        job1->program();
        a.setupStateBuffer();
        auto other = workload::Workload::create(app, b, 4096, 33);
        other->program();
        b.setupStateBuffer();
        a.start();
        ASSERT_EQ(a.wait(), accel::Status::kDone) << app;
        ASSERT_TRUE(job1->verify()) << app;

        // A different size too, so even MB (whose result is its
        // line count) tells the jobs apart.
        auto job2 = workload::Workload::create(app, a, 8192, 22);
        job2->program();
        int completions = 0;
        a.vaccel().setCompletionHandler(
            [&](accel::Status) { ++completions; });

        // B's START trap lands trapEmulateCost from now and arms the
        // slice timer: A is switched out one slice later.
        const sim::Tick switch_at =
            sys.eq.now() + p.trapEmulateCost + p.timeSlice;
        sys.hv.mmioWrite(b.vaccel(), accel::reg::kCtrl,
                         accel::ctrl::kStart);
        sys.eq.scheduleAt(
            switch_at + k * kStep - p.trapEmulateCost, [&]() {
                sys.hv.mmioWrite(a.vaccel(), accel::reg::kCtrl,
                                 accel::ctrl::kStart);
            });
        sys.run(switch_at + 20 * sim::kTickMs);

        const bool ok = completions == 1 &&
                        sys.hv.peekStatus(a.vaccel()) ==
                            accel::Status::kDone &&
                        job2->verify() &&
                        sys.hv.peekStatus(b.vaccel()) ==
                            accel::Status::kDone &&
                        other->verify();
        if (!ok && ++failures <= 3) {
            ADD_FAILURE() << app << ": START at switch + "
                          << k * kStep / sim::kTickNs << " ns: "
                          << completions << " completion(s)";
        }
    }
    EXPECT_EQ(failures, 0) << app << " of " << kOffsets << " offsets";
}

INSTANTIATE_TEST_SUITE_P(Apps, LostStartTest,
                         ::testing::Values("SHA", "AES", "MB", "LL"));

/** The {status, result, progress} header of a saved context. */
constexpr std::uint64_t kStateHeaderBytes = 3 * sizeof(std::uint64_t);

/**
 * The state buffer is guest memory, so a tenant can overwrite its
 * saved context while descheduled. Fill the buffer with 0xff from
 * byte @p from on, between the victim's save and its resume: the
 * resume must end the victim's job in kError with the kDeviceError
 * bit, and the co-tenant sharing the accelerator must still complete
 * with a verified result.
 */
void
corruptSavedContext(const std::string &app, std::uint64_t from)
{
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 50 * sim::kTickUs;
    System sys(makeOptimusConfig(app, 1, p));
    AccelHandle &victim = sys.attach(0, 1ULL << 30);
    AccelHandle &other = sys.attach(0, 1ULL << 30);

    // Long enough to be preempted; BTC's size sets only its difficulty.
    const std::uint64_t victim_bytes =
        app == "BTC" ? 1ULL << 30 : 4ULL << 20;
    auto wv = workload::Workload::create(app, victim, victim_bytes, 17);
    wv->program();
    victim.setupStateBuffer();
    auto wo = workload::Workload::create(app, other, 512 * 1024, 18);
    wo->program();
    other.setupStateBuffer();
    const mem::Gva buf(victim.mmioRead(accel::reg::kStateBuf));
    const std::uint64_t size = victim.mmioRead(accel::reg::kStateSize);

    victim.start();
    other.start();
    // The co-tenant holds the slot only once the victim's context is
    // saved in its buffer.
    victim.pumpUntil([&]() { return sys.hv.isScheduled(other.vaccel()); });
    ASSERT_EQ(sys.hv.peekStatus(victim.vaccel()), accel::Status::kRunning)
        << app << ": the victim finished before its first preemption";
    std::vector<std::uint8_t> junk(size - from, 0xff);
    victim.memWrite(buf + from, junk.data(), junk.size());

    EXPECT_EQ(other.wait(), accel::Status::kDone) << app;
    EXPECT_TRUE(wo->verify()) << app;
    sys.run(sys.eq.now() + 20 * sim::kTickMs);
    EXPECT_EQ(sys.hv.peekStatus(victim.vaccel()), accel::Status::kError)
        << app;
    EXPECT_NE(victim.vaccel().errorStatus() & accel::errst::kDeviceError,
              0u)
        << app;
}

/** Every app: a clobbered header carries a status no preempt saves. */
class CorruptSavedStateTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CorruptSavedStateTest, ResumeFailsOnlyTheVictim)
{
    corruptSavedContext(GetParam(), 0);
}

INSTANTIATE_TEST_SUITE_P(Apps, CorruptSavedStateTest,
                         ::testing::Values("AES", "MD5", "SHA", "FIR",
                                           "GRN", "GRS", "GAU", "SBL",
                                           "RSD", "SW", "SSSP", "LL",
                                           "MB", "BTC"));

/**
 * Header intact, app fields clobbered: each app's own checks must
 * reject them (stream position, vertex-set sizes, saved booleans).
 * LL, MB and SW are absent: every bit pattern of their fields is a
 * state they could have saved.
 */
class CorruptArchStateTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CorruptArchStateTest, ResumeFailsOnlyTheVictim)
{
    corruptSavedContext(GetParam(), kStateHeaderBytes);
}

INSTANTIATE_TEST_SUITE_P(Apps, CorruptArchStateTest,
                         ::testing::Values("AES", "MD5", "SHA", "FIR",
                                           "GRN", "GRS", "GAU", "SBL",
                                           "RSD", "SSSP", "BTC"));

} // namespace

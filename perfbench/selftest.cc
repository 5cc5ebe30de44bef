/**
 * @file
 * Self-test of the benchmark's own metric code (metrics.hh): bucket
 * percentiles and the ten-samples-beyond rule, best-of-k selection
 * per segment, reference-probe rescaling, and trace-span pairing.
 * Exits non-zero if any check fails; run.py runs it before every
 * benchmark run.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "metrics.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

/** Width-1 buckets: bucket i holds exactly the value i. */
const BucketLayout kUnit{
    [](std::uint32_t i) -> std::uint64_t { return i; },
    [](std::uint32_t i) -> std::uint64_t { return i + 1u; }};
/** Width-10 buckets: bucket i holds [10i, 10i + 10). */
const BucketLayout kTens{
    [](std::uint32_t i) -> std::uint64_t { return 10u * i; },
    [](std::uint32_t i) -> std::uint64_t { return 10u * i + 10u; }};

void
testPercentiles()
{
    // 100 samples, one per value 0..99, width-1 buckets: the p-th
    // percentile is the ceil(p)-th smallest sample, placed at the
    // middle of its unit bucket.
    std::vector<std::uint64_t> b(100, 1);
    check(near(bucketPercentile(b, 50, kUnit), 49.5), "p50 of 0..99");
    check(near(bucketPercentile(b, 99, kUnit), 98.5), "p99 of 0..99");
    check(near(bucketPercentile(b, 100, kUnit), 99.5), "p100 of 0..99");
    check(bucketPercentile({}, 50, kUnit) == 0.0, "empty histogram");
    check(bucketPercentile({0, 0, 0}, 50, kUnit) == 0.0,
          "all-zero histogram");

    // Interpolation inside one wide bucket: 4 samples in [20, 30).
    // Rank r of 4 lands at 20 + 10 * (r - 0.5) / 4.
    std::vector<std::uint64_t> w = {0, 0, 4};
    check(near(bucketPercentile(w, 25, kTens), 21.25), "p25 in bucket");
    check(near(bucketPercentile(w, 100, kTens), 28.75), "p100 in bucket");
    // Ranks round up: p51 of 4 samples is the 3rd sample.
    check(near(bucketPercentile(w, 51, kTens), 26.25), "rank rounds up");
    // Empty buckets before the hit are skipped, counts accumulate.
    std::vector<std::uint64_t> two = {1, 0, 0, 1};
    check(near(bucketPercentile(two, 50, kTens), 5.0), "p50 first");
    check(near(bucketPercentile(two, 51, kTens), 35.0), "p51 second");

    // Deltas and merges.
    auto d = bucketDelta({5, 7, 9}, {1, 2});
    check(d.size() == 3 && d[0] == 4 && d[1] == 5 && d[2] == 9,
          "bucketDelta");
    std::vector<std::uint64_t> acc = {1};
    bucketAdd(acc, {1, 2, 3});
    check(acc.size() == 3 && acc[0] == 2 && bucketCount(acc) == 7,
          "bucketAdd / bucketCount");
}

void
testTenBeyond()
{
    // p99 of 1000 samples leaves exactly 10 beyond it; of 999, 9.
    check(samplesBeyond(1000, 99) == 10, "1000 samples beyond p99");
    check(samplesBeyond(999, 99) == 9, "999 samples beyond p99");
    check(samplesBeyond(10, 100) == 0, "nothing beyond p100");
    const std::vector<double> ladder = {50, 75, 90, 95, 99, 99.9};
    check(highestSupportedPercentile(10000, ladder) == 99.9,
          "10000 samples support p99.9");
    check(highestSupportedPercentile(1000, ladder) == 99,
          "1000 samples support p99");
    check(highestSupportedPercentile(999, ladder) == 95,
          "999 samples fall back to p95");
    check(highestSupportedPercentile(60, ladder) == 75,
          "60 samples support p75");
    check(highestSupportedPercentile(19, ladder) == 0,
          "19 samples support no rung (p50 leaves 9)");
    check(highestSupportedPercentile(20, ladder) == 50,
          "20 samples support p50");
}

void
testBestOfK()
{
    // One segment each: plain best of k, the fastest repetition.
    check(near(bestOfK({{0.9}, {0.7}, {0.8}}), 0.7),
          "fastest repetition wins");
    check(near(bestOfK({{1.0}}), 1.0), "single repetition");
    // Per segment: each segment's fastest time, wherever it occurred.
    // Repetition 0 was slow at the start, repetition 1 at the end.
    check(near(bestOfK({{0.5, 0.2, 0.2}, {0.3, 0.2, 0.6}}), 0.7),
          "fastest time per segment");
    // Never slower than the fastest whole repetition (0.9 here).
    check(bestOfK({{0.4, 0.5}, {0.5, 0.4}}) <= 0.9,
          "composite <= fastest repetition");
    bool threw = false;
    try {
        bestOfK({});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "no repetitions is an error");
    threw = false;
    try {
        bestOfK({{0.1, 0.2}, {0.1}});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "differing segment counts are an error");
    check(near(median({3, 1, 2}), 2), "odd median");
    check(near(median({4, 1, 3, 2}), 2.5), "even median");
    check(median({}) == 0.0, "empty median");
}

void
testReferenceSeconds()
{
    // A machine at half speed doubles repetition and probes alike.
    check(near(referenceSeconds(2.0, {0.5, 0.5, 0.5}, 0.5), 2.0),
          "nominal probe keeps host time");
    check(near(referenceSeconds(4.0, {1.0, 1.0, 1.0}, 0.5), 2.0),
          "slow machine scaled back");
    // The median probe, so one probe hit by noise does not count.
    check(near(referenceSeconds(3.0, {1.0, 9.0, 1.0}, 1.0), 3.0),
          "median of the probes");
    bool threw = false;
    try {
        referenceSeconds(1.0, {}, 1.0);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "no probes is an error");
    threw = false;
    try {
        referenceSeconds(1.0, {0.0, 0.0, 0.0}, 1.0);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "zero probe time is an error");
}

void
testFifoPairing()
{
    FifoPairer p;
    std::uint64_t span = 0;
    p.open(1, 100);
    p.open(1, 110);
    p.open(2, 105);
    // Key 2 closes independently of key 1's queue.
    check(p.close(2, 125, span) && span == 20, "key 2 pairs");
    // Key 1 pairs oldest first.
    check(p.close(1, 130, span) && span == 30, "first open pairs first");
    check(p.stillOpen() == 1, "one start still open");
    check(p.close(1, 140, span) && span == 30, "second open pairs next");
    check(!p.close(1, 150, span), "close with nothing open");
    check(!p.close(7, 150, span), "close of unknown key");
    check(p.unmatchedCloses() == 2 && p.stillOpen() == 0,
          "unmatched closes counted");
}

void
testSeqPairing()
{
    SeqPairer p;
    std::uint64_t span = 0;
    // Publish seqs 0..2 at t=10, then 3 at t=50; a re-publish of an
    // older cursor covers nothing new.
    p.publish(9, 3, 10);
    p.publish(9, 3, 20);
    p.publish(9, 4, 50);
    check(p.complete(9, 0, 15, span) && span == 5, "seq 0 -> t10");
    check(p.complete(9, 2, 40, span) && span == 30, "seq 2 -> t10");
    check(p.complete(9, 3, 70, span) && span == 20, "seq 3 -> t50");
    check(!p.complete(9, 4, 80, span), "seq 4 never published");
    check(!p.complete(8, 0, 80, span), "other vaccel has no ranges");
    check(p.unmatchedCompletes() == 2, "unmatched completes counted");
}

} // namespace

int
main()
{
    testPercentiles();
    testTenBeyond();
    testBestOfK();
    testReferenceSeconds();
    testFifoPairing();
    testSeqPairing();
    if (failures) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("selftest: ok\n");
    return 0;
}

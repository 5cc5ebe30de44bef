/**
 * @file
 * The benchmark's own metric arithmetic, kept free of simulator types
 * so selftest.cc can check it on hand-built inputs:
 *
 *  - percentiles over log-bucketed histogram counts (the layout of
 *    sim::Histogram), interpolated inside the selected bucket, and the
 *    "highest percentile with at least ten samples beyond it" rule;
 *  - best-of-k selection over repetitions, per segment, and medians;
 *  - rescaling segment times by a reference probe timed beside them;
 *  - pairing of trace records into spans: FIFO pairing per key (DMA
 *    issue to mux grant) and cumulative-sequence pairing (ring submit
 *    publishes a range of sequence numbers, completions name one).
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/** Bucket bounds: [lo(i), hi(i)) for bucket i. */
struct BucketLayout
{
    std::uint64_t (*lo)(std::uint32_t);
    std::uint64_t (*hi)(std::uint32_t);
};

/** Element-wise after - before (a histogram's growth over a window). */
inline std::vector<std::uint64_t>
bucketDelta(const std::vector<std::uint64_t> &after,
            const std::vector<std::uint64_t> &before)
{
    std::vector<std::uint64_t> out(after);
    for (std::size_t i = 0; i < before.size() && i < out.size(); ++i)
        out[i] -= before[i];
    return out;
}

/** Element-wise a += b, growing a as needed. */
inline void
bucketAdd(std::vector<std::uint64_t> &a,
          const std::vector<std::uint64_t> &b)
{
    if (b.size() > a.size())
        a.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i)
        a[i] += b[i];
}

inline std::uint64_t
bucketCount(const std::vector<std::uint64_t> &b)
{
    std::uint64_t n = 0;
    for (std::uint64_t c : b)
        n += c;
    return n;
}

/**
 * 1-based rank of the @p p-th percentile among @p n samples:
 * ceil(p/100 * n), clamped to [1, n]. The product is computed in
 * floating point, so a value within 1e-9 of an integer counts as that
 * integer (99.9% of 10000 is rank 9990, not 9991).
 */
inline std::uint64_t
percentileRank(std::uint64_t n, double p)
{
    double exact = p / 100.0 * static_cast<double>(n);
    auto rank = static_cast<std::uint64_t>(exact + 1e-9);
    if (static_cast<double>(rank) + 1e-9 < exact)
        ++rank;
    return std::clamp<std::uint64_t>(rank, 1, n);
}

/**
 * The @p p-th percentile (0 < p <= 100) of bucketed samples: find the
 * bucket holding the ceil(p/100 * n)-th smallest sample, then place
 * the value linearly inside that bucket by the rank's position among
 * the bucket's samples. Interpolating, rather than reporting a fixed
 * bucket midpoint, keeps the value continuous in the data, so two
 * different sample sets rarely print the same figure. Returns 0 for
 * an empty histogram.
 */
inline double
bucketPercentile(const std::vector<std::uint64_t> &b, double p,
                 const BucketLayout &layout)
{
    std::uint64_t n = bucketCount(b);
    if (n == 0)
        return 0.0;
    const std::uint64_t rank = percentileRank(n, p);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (b[i] == 0)
            continue;
        if (cum + b[i] >= rank) {
            auto idx = static_cast<std::uint32_t>(i);
            double lo = static_cast<double>(layout.lo(idx));
            double width =
                static_cast<double>(layout.hi(idx) - layout.lo(idx));
            double within = (static_cast<double>(rank - cum) - 0.5) /
                            static_cast<double>(b[i]);
            return lo + width * within;
        }
        cum += b[i];
    }
    return 0.0;
}

/** Samples strictly beyond the @p p-th percentile rank of @p n. */
inline std::uint64_t
samplesBeyond(std::uint64_t n, double p)
{
    if (n == 0)
        return 0;
    return n - percentileRank(n, p);
}

/**
 * The highest percentile of @p ladder (ascending) that still has at
 * least @p min_beyond samples beyond it out of @p n; 0 when even the
 * lowest rung lacks them (too few samples to report a tail).
 */
inline double
highestSupportedPercentile(std::uint64_t n,
                           const std::vector<double> &ladder,
                           std::uint64_t min_beyond = 10)
{
    double best = 0.0;
    for (double p : ladder)
        if (samplesBeyond(n, p) >= min_beyond)
            best = p;
    return best;
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/**
 * Best of k, taken per segment. @p reps[r][j] is the host time
 * repetition r spent on segment j, one fixed stretch of simulated
 * time; every repetition simulates identical work, so segment j is the
 * same work in each. Returns the sum over segments of the fastest
 * repetition's time for that segment: the run time with the least
 * host noise that the repetitions observed. Noise on a shared machine
 * comes in bursts shorter than a repetition, so this converges faster
 * than the fastest whole repetition, which it never exceeds. Throws
 * when there are no repetitions or their segment counts differ.
 */
inline double
bestOfK(const std::vector<std::vector<double>> &reps)
{
    if (reps.empty())
        throw std::invalid_argument("bestOfK: no repetitions");
    std::vector<double> best = reps.front();
    for (const auto &r : reps) {
        if (r.size() != best.size())
            throw std::invalid_argument("bestOfK: segment counts differ");
        for (std::size_t j = 0; j < r.size(); ++j)
            best[j] = std::min(best[j], r[j]);
    }
    double sum = 0;
    for (double t : best)
        sum += t;
    return sum;
}

/**
 * Host time in reference seconds. @p hostS is the host time of one
 * repetition; @p probes are the times a fixed reference computation
 * took at points spread through it. Returns @p hostS scaled by
 * @p nominal over the probes' median: the time the repetition would
 * have taken on a machine running the reference at its nominal speed.
 * The median ignores probes that a burst of host noise hit. Throws
 * when there are no probes or their median is not positive.
 */
inline double
referenceSeconds(double hostS, const std::vector<double> &probes,
                 double nominal)
{
    double probe = median(probes);
    if (!(probe > 0))
        throw std::invalid_argument("referenceSeconds: need probe "
                                    "times above zero");
    return hostS * nominal / probe;
}

/**
 * FIFO span pairing per key: open(key, t) queues a start, close(key, t)
 * pairs with the oldest open start of that key and returns the span
 * length. A close with nothing open is counted as unmatched and
 * yields no span. Models any in-order pipeline stage, e.g. a DMA
 * port's issues against its grants at the multiplexer root.
 */
class FifoPairer
{
  public:
    void open(std::uint64_t key, std::uint64_t t)
    {
        _open[key].push_back(t);
    }

    /** @return true and the span in @p span when a start was open. */
    bool
    close(std::uint64_t key, std::uint64_t t, std::uint64_t &span)
    {
        auto it = _open.find(key);
        if (it == _open.end() || it->second.empty()) {
            ++_unmatched;
            return false;
        }
        span = t - it->second.front();
        it->second.pop_front();
        return true;
    }

    std::uint64_t unmatchedCloses() const { return _unmatched; }

    std::uint64_t
    stillOpen() const
    {
        std::uint64_t n = 0;
        for (const auto &kv : _open)
            n += kv.second.size();
        return n;
    }

  private:
    std::map<std::uint64_t, std::deque<std::uint64_t>> _open;
    std::uint64_t _unmatched = 0;
};

/**
 * Pairing for cumulative producer cursors: publish(key, prod, t)
 * announces that every sequence number below @p prod not published
 * before was published at @p t; complete(key, seq, t) pairs sequence
 * @p seq with the publish that first covered it. Sequence numbers
 * start at 0 and never wrap (the ring layout guarantees both).
 */
class SeqPairer
{
  public:
    void
    publish(std::uint64_t key, std::uint64_t prod, std::uint64_t t)
    {
        auto &ranges = _ranges[key];
        std::uint64_t from = ranges.empty() ? 0 : ranges.back().prod;
        if (prod > from)
            ranges.push_back({prod, t});
    }

    bool
    complete(std::uint64_t key, std::uint64_t seq, std::uint64_t t,
             std::uint64_t &span)
    {
        auto it = _ranges.find(key);
        if (it != _ranges.end()) {
            // Ranges are ascending in prod: the first range whose
            // exclusive end exceeds seq published it.
            auto &ranges = it->second;
            auto r = std::upper_bound(
                ranges.begin(), ranges.end(), seq,
                [](std::uint64_t s, const Range &x) {
                    return s < x.prod;
                });
            if (r != ranges.end()) {
                span = t - r->t;
                return true;
            }
        }
        ++_unmatched;
        return false;
    }

    std::uint64_t unmatchedCompletes() const { return _unmatched; }

  private:
    struct Range
    {
        std::uint64_t prod; ///< exclusive end of the published range
        std::uint64_t t;
    };
    std::map<std::uint64_t, std::vector<Range>> _ranges;
    std::uint64_t _unmatched = 0;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH

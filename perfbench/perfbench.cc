/**
 * @file
 * One workload of the repository benchmark, run k times in-process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Every repetition builds a fresh simulated machine through the public
 * APIs (hv::System, svc::ServicePlane, hv::AccelHandle,
 * fleet::Cluster), serves one open-loop traffic window, drains it and
 * reads the public telemetry tree. Repetitions run until S host
 * seconds have passed (at least kMinReps). Simulated results must be
 * identical in every repetition. Host rates come from the fastest
 * repetition in reference seconds: host time rescaled by a fixed
 * reference computation timed beside the simulation (RefProbe), so
 * that the machine's own drift cancels. Set-up time is the median
 * over all set-ups. With --trace 1, every other repetition also
 * attaches a span sink to the trace bus and one runs on a two-thread
 * epoch-scheduler pool; traced, untraced and pooled repetitions must
 * agree on every simulated number.
 *
 * Prints one JSON object on stdout: correctness verdict, attempted and
 * failed requests, and every end-to-end and per-layer metric with its
 * unit. NOTES.md explains the workloads and the metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/membench_accel.hh"
#include "exp/result.hh"
#include "fleet/fleet.hh"
#include "hv/system.hh"
#include "metrics.hh"
#include "sim/trace_bus.hh"
#include "svc/service_plane.hh"

using namespace optimus;
using perfbench::bucketAdd;
using perfbench::bucketCount;
using perfbench::bucketDelta;
using perfbench::bucketPercentile;

namespace {

using Clock = std::chrono::steady_clock;
using Buckets = std::vector<std::uint64_t>;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

const perfbench::BucketLayout kHistLayout{sim::Histogram::bucketLo,
                                          sim::Histogram::bucketHi};

double
pct(const Buckets &b, double p)
{
    return bucketPercentile(b, p, kHistLayout);
}

void
sampleInto(Buckets &b, std::uint64_t v)
{
    std::uint32_t i = sim::Histogram::bucketIndex(v);
    if (b.size() <= i)
        b.resize(i + 1, 0);
    ++b[i];
}

// ------------------------------------------------------------ telemetry

/** Every counter and histogram of one or more telemetry trees, keyed
 *  by dotted path (node-prefixed "nK." for a cluster). */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Buckets> hists;
    std::uint64_t events = 0;
    std::uint64_t epochs = 0;
    std::uint64_t crossPosts = 0;
    sim::Tick now = 0;
};

void
walk(const sim::TelemetryNode &n, const std::string &prefix,
     Snapshot &s)
{
    for (const sim::Stat *st : n.stats()) {
        std::string key = prefix + n.path() + "." + st->name();
        if (n.path().empty())
            key = prefix + st->name();
        if (auto *c = dynamic_cast<const sim::Counter *>(st))
            s.counters[key] = c->value();
        else if (auto *h = dynamic_cast<const sim::Histogram *>(st))
            s.hists[key] = h->buckets();
    }
    for (const auto &c : n.children())
        walk(*c, prefix, s);
}

/** Snapshot @p nodes, which share one scheduler when there are
 *  several (a cluster). */
Snapshot
snapshot(const std::vector<hv::System *> &nodes)
{
    Snapshot s;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        std::string prefix =
            nodes.size() > 1 ? "n" + std::to_string(i) + "." : "";
        walk(nodes[i]->telemetry.root(), prefix, s);
    }
    s.events = nodes[0]->domains.executed();
    s.epochs = nodes[0]->sched.epochs();
    s.crossPosts = nodes[0]->sched.delivered();
    s.now = nodes[0]->now();
    return s;
}

/** Growth of every counter and histogram between two snapshots. */
struct Delta
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Buckets> hists;
    std::uint64_t events = 0;
    std::uint64_t epochs = 0;
    std::uint64_t crossPosts = 0;
    sim::Tick elapsed = 0;

    Delta(const Snapshot &a, const Snapshot &b)
        : events(b.events - a.events),
          epochs(b.epochs - a.epochs),
          crossPosts(b.crossPosts - a.crossPosts),
          elapsed(b.now - a.now)
    {
        for (const auto &[k, v] : b.counters) {
            auto it = a.counters.find(k);
            counters[k] = v - (it == a.counters.end() ? 0 : it->second);
        }
        for (const auto &[k, v] : b.hists) {
            auto it = a.hists.find(k);
            hists[k] = it == a.hists.end() ? v
                                           : bucketDelta(v, it->second);
        }
    }

    /** Strip a cluster node prefix ("n3.") from a key. */
    static std::string
    local(const std::string &key)
    {
        if (key.size() > 1 && key[0] == 'n' &&
            std::isdigit(static_cast<unsigned char>(key[1]))) {
            auto dot = key.find('.');
            if (dot != std::string::npos)
                return key.substr(dot + 1);
        }
        return key;
    }

    static bool
    matches(const std::string &key, const std::string &prefix,
            const std::string &suffix)
    {
        return key.size() >= prefix.size() + suffix.size() &&
               key.compare(0, prefix.size(), prefix) == 0 &&
               key.compare(key.size() - suffix.size(), suffix.size(),
                           suffix) == 0;
    }

    /** Sum of the counters whose local path starts with @p prefix and
     *  ends with @p suffix, over every node. */
    std::uint64_t
    sum(const std::string &prefix, const std::string &suffix = "") const
    {
        std::uint64_t n = 0;
        for (const auto &[k, v] : counters)
            if (matches(local(k), prefix, suffix))
                n += v;
        return n;
    }

    Buckets
    mergedHist(const std::string &prefix, const std::string &suffix) const
    {
        Buckets out;
        for (const auto &[k, v] : hists)
            if (matches(local(k), prefix, suffix))
                bucketAdd(out, v);
        return out;
    }
};

// ---------------------------------------------------------------- trace

/** Spans and counts derived from the trace bus of every node. */
struct Spans
{
    std::uint64_t records = 0;
    Buckets dmaSpan;                       ///< issue -> complete (ns)
    std::map<std::uint64_t, Buckets> dmaSpanByTenant;
    Buckets muxTransit;                    ///< issue -> root grant (ns)
    std::uint64_t muxTransitMin = ~std::uint64_t{0};
    std::uint64_t muxGrants = 0;
    std::uint64_t channelSelects = 0;
    std::uint64_t upiSelects = 0;
    std::uint64_t iotlbHits = 0;
    std::uint64_t iotlbMisses = 0;
    std::uint64_t iotlbEvicts = 0;
    std::uint64_t preempts = 0;
    Buckets preemptSlice;                  ///< slice actually run (ns)
    Buckets ringSpan;                      ///< submit -> complete (ns)
    perfbench::FifoPairer issueToRoot;
    perfbench::SeqPairer ring;
};

/** Benchmark-owned sink on one node's trace bus. */
class SpanSink : public sim::TraceSink
{
  public:
    SpanSink(Spans &spans, unsigned node) : _s(spans), _node(node) {}

    void
    record(const sim::TraceBus &bus, const sim::TraceRecord &r) override
    {
        ++_s.records;
        const std::uint64_t nodeKey = std::uint64_t{_node} << 32;
        switch (r.kind) {
            case sim::TraceKind::kDmaIssue:
                _s.issueToRoot.open(nodeKey | slotOfPort(bus, r.comp),
                                    r.at);
                break;
            case sim::TraceKind::kDmaComplete: {
                std::uint64_t ns = (r.at - r.start) / sim::kTickNs;
                sampleInto(_s.dmaSpan, ns);
                sampleInto(_s.dmaSpanByTenant[nodeKey | r.vm], ns);
                break;
            }
            case sim::TraceKind::kMuxGrant:
                ++_s.muxGrants;
                if (isRootMux(bus, r.comp)) {
                    std::uint64_t span = 0;
                    if (_s.issueToRoot.close(nodeKey | r.tag, r.at, span)) {
                        span /= sim::kTickNs;
                        sampleInto(_s.muxTransit, span);
                        _s.muxTransitMin = std::min(_s.muxTransitMin, span);
                    }
                }
                break;
            case sim::TraceKind::kChannelSelect:
                ++_s.channelSelects;
                if (r.arg == 0)
                    ++_s.upiSelects;
                break;
            case sim::TraceKind::kIotlbHit:
                ++_s.iotlbHits;
                break;
            case sim::TraceKind::kIotlbMiss:
                ++_s.iotlbMisses;
                break;
            case sim::TraceKind::kIotlbEvict:
                ++_s.iotlbEvicts;
                break;
            case sim::TraceKind::kSchedPreempt:
                ++_s.preempts;
                sampleInto(_s.preemptSlice, (r.at - r.start) / sim::kTickNs);
                break;
            case sim::TraceKind::kRingSubmit:
                _s.ring.publish(nodeKey | r.addr, r.arg, r.at);
                break;
            case sim::TraceKind::kRingComplete: {
                std::uint64_t span = 0;
                if (_s.ring.complete(nodeKey | r.addr, r.arg, r.at, span))
                    sampleInto(_s.ringSpan, span / sim::kTickNs);
                break;
            }
            default:
                break;
        }
    }

  private:
    /** Slot of a DMA port component ("accel3.AES.dma" -> 3). */
    std::uint64_t
    slotOfPort(const sim::TraceBus &bus, std::uint32_t comp)
    {
        auto it = _portSlot.find(comp);
        if (it != _portSlot.end())
            return it->second;
        const std::string &path = bus.componentPath(comp);
        std::uint64_t slot = std::strtoull(
            path.c_str() + std::strlen("accel"), nullptr, 10);
        _portSlot.emplace(comp, slot);
        return slot;
    }

    /** The multiplexer tree's root node is "fabric.mux.l0n0". */
    bool
    isRootMux(const sim::TraceBus &bus, std::uint32_t comp)
    {
        auto it = _rootMux.find(comp);
        if (it != _rootMux.end())
            return it->second;
        const std::string &path = bus.componentPath(comp);
        const std::string root = "mux.l0n0";
        bool is = path.size() >= root.size() &&
                  path.compare(path.size() - root.size(), root.size(),
                               root) == 0;
        _rootMux.emplace(comp, is);
        return is;
    }

    Spans &_s;
    unsigned _node;
    std::map<std::uint32_t, std::uint64_t> _portSlot;
    std::map<std::uint32_t, bool> _rootMux;
};

/** Attaches one SpanSink per node bus for the lifetime of the
 *  object (the traced window). */
class TraceAttach
{
  public:
    TraceAttach(Spans *spans, const std::vector<hv::System *> &nodes)
    {
        if (!spans)
            return;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            _sinks.push_back(std::make_unique<SpanSink>(
                *spans, static_cast<unsigned>(i)));
            nodes[i]->trace.attach(_sinks.back().get());
            _buses.push_back(&nodes[i]->trace);
        }
    }
    ~TraceAttach()
    {
        for (std::size_t i = 0; i < _buses.size(); ++i)
            _buses[i]->detach(_sinks[i].get());
    }
    TraceAttach(const TraceAttach &) = delete;
    TraceAttach &operator=(const TraceAttach &) = delete;

  private:
    std::vector<std::unique_ptr<SpanSink>> _sinks;
    std::vector<sim::TraceBus *> _buses;
};

/**
 * A fixed reference computation timed beside the simulation: a small
 * discrete-event loop (a binary heap of 8 Ki events, a hash map of
 * 16 Ki keys, a 1 MiB table) that shares no code with the simulator,
 * so only the machine can change its speed. On a shared host the
 * simulator's speed moves with the machine's by the minute; this loop
 * moves with it, which lets host times be rescaled to a nominal
 * machine (perfbench::referenceSeconds). Each burst first runs a few
 * untimed events so its own data are in cache whatever the simulator
 * did before.
 */
class RefProbe
{
  public:
    /** Nominal time of one timed burst: a reference second is the
     *  host second of a machine that runs a burst in this time. */
    static constexpr double kNominalS = 500e-6;

    RefProbe() : _table(std::size_t(1) << 17)
    {
        for (std::uint32_t i = 0; i < kEvents; ++i)
            _heap.push({i * 7919u % kEvents, (i * 4u) & kKeyMask});
        for (std::uint32_t i = 0; i <= kKeyMask; i += 2)
            _map[i] = i;
    }

    /** Host seconds of one timed burst. */
    double
    run()
    {
        step(kWarmSteps);
        auto t0 = Clock::now();
        step(kTimedSteps);
        return secondsSince(t0);
    }

  private:
    static constexpr std::uint32_t kEvents = 8192;
    static constexpr std::uint32_t kKeyMask = (1u << 15) - 1;
    static constexpr unsigned kWarmSteps = 500;
    static constexpr unsigned kTimedSteps = 2000;

    void
    step(unsigned n)
    {
        for (unsigned k = 0; k < n; ++k) {
            auto [t, key] = _heap.top();
            _heap.pop();
            _x ^= _x << 13;
            _x ^= _x >> 7;
            _x ^= _x << 17;
            if (auto it = _map.find(key); it != _map.end())
                it->second += _x;
            _table[(key * 2654435761u + _x) & (_table.size() - 1)] += t;
            _heap.push({t + (_x & 1023),
                        static_cast<std::uint32_t>(_x & kKeyMask)});
        }
    }

    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> _heap;
    std::unordered_map<std::uint32_t, std::uint64_t> _map;
    std::vector<std::uint64_t> _table;
    std::uint64_t _x = 88172645463325252ull;
};

RefProbe &
refProbe()
{
    static RefProbe probe;
    return probe;
}

/**
 * Host time per equal stretch of simulated time, read at epoch
 * barriers. Barrier ticks are deterministic, so identical repetitions
 * cut identical segments, and perfbench::bestOfK can take the fastest
 * time of each. The reference probe runs at the start and at every
 * cut, outside the segments' time.
 */
class SegmentClock
{
  public:
    SegmentClock(sim::Tick start, sim::Tick length)
        : _next(start + length), _length(length)
    {
        _probes.push_back(refProbe().run());
        _last = Clock::now();
    }

    void
    barrier(sim::Tick now)
    {
        if (now < _next)
            return;
        cut();
        while (_next <= now)
            _next += _length;
    }

    /** Close the last segment; returns every segment's host seconds
     *  and, in @p probes, the probe's time at every cut (one more). */
    std::vector<double>
    finish(std::vector<double> &probes)
    {
        cut();
        probes = std::move(_probes);
        return std::move(_segments);
    }

  private:
    void
    cut()
    {
        auto t = Clock::now();
        _segments.push_back(
            std::chrono::duration<double>(t - _last).count());
        _probes.push_back(refProbe().run());
        _last = Clock::now();
    }

    sim::Tick _next;
    sim::Tick _length;
    Clock::time_point _last;
    std::vector<double> _segments;
    std::vector<double> _probes;
};

/** Segments per traffic window (the drain adds one more). */
constexpr sim::Tick kSegments = 40;

// ---------------------------------------------------------- repetitions

struct Metric
{
    double value = 0;
    const char *unit = "";
};
using Metrics = std::map<std::string, Metric>;

/** What one repetition measured. Everything in sim, the counts and
 *  the fingerprint is simulated and must repeat exactly; the rest is
 *  host time. */
struct Rep
{
    double setupS = 0;        ///< construction + tenants + warm-up
    /** Host seconds of the traffic window (drain included), split
     *  into SegmentClock segments. */
    std::vector<double> segS;
    std::vector<double> probeS; ///< reference probe at every cut
    double buildMs = 0;       ///< System / Cluster constructor
    double addTenantMs = 0;   ///< mean per addTenant call
    double migrateCallUs = 0; ///< mean per Cluster::migrateTenant call
    std::uint64_t fingerprint = 0;
    Metrics sim;
    std::uint64_t attempted = 0; ///< arrivals
    std::uint64_t failed = 0;    ///< rejected + dropped + verify failures
    std::uint64_t completed = 0;
    std::uint64_t dmas = 0;
    std::vector<std::string> violations;
};

/** Request-level accounting over a set of service-plane tenants. */
struct TenantTotals
{
    std::uint64_t arrivals = 0, admitted = 0, rejected = 0,
                  completed = 0, dropped = 0, retries = 0, batches = 0,
                  sloViolations = 0, goodput = 0, verifyFailures = 0;
    Buckets e2e, queue, service;

    void
    add(const svc::Tenant &t)
    {
        arrivals += t.arrivals();
        admitted += t.admitted();
        rejected += t.rejected();
        completed += t.completed();
        dropped += t.dropped();
        retries += t.retries();
        batches += t.batches();
        sloViolations += t.sloViolations();
        goodput += t.goodput();
        verifyFailures += t.verifyFailures();
        bucketAdd(e2e, t.e2eHist().buckets());
        bucketAdd(queue, t.queueHist().buckets());
        bucketAdd(service, t.serviceHist().buckets());
    }
};

/**
 * Fill the simulated metrics and the correctness gate shared by every
 * workload from the window's telemetry delta, the tenant totals and
 * the expected open-loop arrivals.
 */
void
finishRep(Rep &rep, const Delta &d, const TenantTotals &tt,
          double offered, std::uint64_t plane_fingerprint,
          unsigned nodes = 1)
{
    auto &m = rep.sim;
    auto count = [](std::uint64_t n) {
        return Metric{static_cast<double>(n), "count"};
    };
    auto ratio = [](double num, double den) {
        return Metric{den > 0 ? num / den : 0.0, "ratio"};
    };
    const double simS = static_cast<double>(d.elapsed) /
                        static_cast<double>(sim::kTickSec);
    const std::uint64_t dmaReads = d.sum("accel", ".dma.reads");
    const std::uint64_t dmaWrites = d.sum("accel", ".dma.writes");
    rep.dmas = dmaReads + dmaWrites;
    Buckets dmaLat = d.mergedHist("accel", ".dma.latency_hist_ns");

    // End-to-end, simulated time.
    m["req_p50_us"] = {pct(tt.e2e, 50) / 1e3, "us"};
    m["req_p99_us"] = {pct(tt.e2e, 99) / 1e3, "us"};
    m["req_samples"] = count(bucketCount(tt.e2e));
    m["goodput_rps"] = {static_cast<double>(tt.goodput) / simS, "1/s"};
    m["sim_gbps"] = {
        static_cast<double>(d.sum("mem.bytes")) / (simS * 1e9), "GB/s"};
    m["dma_p50_ns"] = {pct(dmaLat, 50), "ns"};
    m["dma_p99_ns"] = {pct(dmaLat, 99), "ns"};
    m["dma_samples"] = count(bucketCount(dmaLat));

    const auto events = static_cast<double>(d.events);
    m["sim.events"] = count(d.events);
    m["sim.events_per_dma"] = ratio(events, static_cast<double>(rep.dmas));
    m["sim.epochs"] = count(d.epochs);
    m["sim.events_per_epoch"] =
        ratio(events, static_cast<double>(d.epochs));
    m["sim.cross_posts"] = count(d.crossPosts);

    m["accel.dma_reads"] = count(dmaReads);
    m["accel.dma_writes"] = count(dmaWrites);
    m["accel.jobs"] = count(d.sum("accel", ".jobs"));
    m["accel.preempts"] = count(d.sum("accel", ".preempts"));
    m["accel.resumes"] = count(d.sum("accel", ".resumes"));
    m["accel.ring_polls"] = count(d.sum("accel", ".ring_polls"));
    m["accel.ring_fetch_per_poll"] =
        ratio(static_cast<double>(d.sum("accel", ".ring_fetches")),
              static_cast<double>(d.sum("accel", ".ring_polls")));

    m["fpga.auditor_forwarded"] =
        count(d.sum("fabric.auditor", ".forwarded"));
    m["fpga.auditor_rejected"] =
        count(d.sum("fabric.auditor", ".rejected_dmas"));

    const double upi = static_cast<double>(d.sum("shell.upi.bytes_to"));
    const double pcie = static_cast<double>(d.sum("shell.pcie"));
    m["ccip.dma_reads"] = count(d.sum("shell.dma_reads"));
    m["ccip.dma_writes"] = count(d.sum("shell.dma_writes"));
    m["ccip.upi_bytes"] = {upi, "B"};
    m["ccip.pcie_bytes"] = {pcie, "B"};
    m["ccip.upi_frac"] = ratio(upi, upi + pcie);
    m["ccip.dma_retries"] = count(d.sum("shell.dma_retries"));
    m["ccip.bridge_requests"] = count(d.sum("shell.bridge.requests"));

    const std::uint64_t hits = d.sum("iommu.iotlb.hits");
    const std::uint64_t misses = d.sum("iommu.iotlb.misses");
    const std::uint64_t walks = d.sum("iommu.walks");
    m["iommu.iotlb_hits"] = count(hits);
    m["iommu.iotlb_misses"] = count(misses);
    m["iommu.iotlb_hit_ratio"] = ratio(static_cast<double>(hits),
                                       static_cast<double>(hits + misses));
    m["iommu.walks"] = count(walks);
    m["iommu.coalesced_walks"] = count(d.sum("iommu.coalesced_walks"));
    m["iommu.conflict_evictions"] =
        count(d.sum("iommu.iotlb.conflict_evictions"));
    // Each walk holds one of the IOMMU's two walkers for the
    // page-walk latency; every workload runs the platform defaults.
    const auto walkTicks = static_cast<double>(
        sim::PlatformParams::harpDefaults().pageWalkLatency);
    m["iommu.walker_busy_frac"] =
        ratio(static_cast<double>(walks) * walkTicks,
              2.0 * nodes * static_cast<double>(d.elapsed));

    m["mem.accesses"] = count(d.sum("mem.accesses"));
    m["mem.bytes"] = {static_cast<double>(d.sum("mem.bytes")), "B"};

    const std::uint64_t traps = d.sum("hv.mmio_traps");
    m["hv.mmio_traps"] = count(traps);
    m["hv.traps_per_req"] = ratio(static_cast<double>(traps),
                                  static_cast<double>(tt.completed));
    m["hv.hypercalls"] = count(d.sum("hv.hypercalls"));
    m["hv.context_switches"] = count(d.sum("hv.context_switches"));
    m["hv.forced_resets"] = count(d.sum("hv.forced_resets"));
    m["hv.ring_kicks"] = count(d.sum("hv.ring_kicks"));
    m["hv.migrations"] = count(d.sum("hv.migrations"));

    m["svc.arrivals"] = count(tt.arrivals);
    m["svc.rejected"] = count(tt.rejected);
    m["svc.dropped"] = count(tt.dropped);
    m["svc.retries"] = count(tt.retries);
    m["svc.batches"] = count(tt.batches);
    m["svc.slo_violations"] = count(tt.sloViolations);
    m["svc.queue_p50_us"] = {pct(tt.queue, 50) / 1e3, "us"};
    m["svc.queue_p99_us"] = {pct(tt.queue, 99) / 1e3, "us"};
    m["svc.service_p50_us"] = {pct(tt.service, 50) / 1e3, "us"};
    m["svc.service_p99_us"] = {pct(tt.service, 99) / 1e3, "us"};

    // Single-node workloads have no fleet; fleetMigrate overwrites.
    m["fleet.migrations"] = count(0);
    m["fleet.blackout_p50_us"] = {0.0, "us"};
    m["fleet.blackout_pNN_us"] = {0.0, "us"};
    m["fleet.blackout_pNN_pct"] = {0.0, "%"};

    rep.attempted = tt.arrivals;
    rep.failed = tt.rejected + tt.dropped + tt.verifyFailures;
    rep.completed = tt.completed;

    // Correctness gate. Never loosened: a violation fails the run.
    auto &v = rep.violations;
    if (tt.verifyFailures != 0)
        v.push_back("verify failures: " +
                    std::to_string(tt.verifyFailures));
    if (tt.arrivals != tt.completed + tt.dropped + tt.rejected)
        v.push_back("arrivals != completed + dropped + rejected after "
                    "drain");
    // Offered-load guard: the admitted arrivals must reach rate x
    // window within Poisson noise (5 sigma). A generator that stops
    // admitting (see NOTES.md, repeated ServicePlane::run windows)
    // fails here instead of reporting a quiet system as a fast one.
    const double admitted = static_cast<double>(tt.admitted);
    if (admitted < offered - 5.0 * std::sqrt(offered))
        v.push_back("offered-load guard: admitted " +
                    std::to_string(tt.admitted) + " of ~" +
                    std::to_string(static_cast<long long>(offered)));
    // A p99 needs at least ten samples beyond it.
    if (perfbench::samplesBeyond(bucketCount(tt.e2e), 99) < 10)
        v.push_back("too few request samples for a p99");
    if (perfbench::samplesBeyond(bucketCount(dmaLat), 99) < 10)
        v.push_back("too few DMA samples for a p99");
    if (d.sum("accel", ".dma.errors") != 0)
        v.push_back("DMA completions with error");

    exp::Fingerprint f;
    f.add(plane_fingerprint);
    f.add(d.elapsed);
    f.add(d.events);
    f.add(d.epochs);
    f.add(d.crossPosts);
    for (const auto &[k, val] : d.counters) {
        f.add(k);
        f.add(val);
    }
    for (const auto &[k, b] : d.hists) {
        f.add(k);
        for (std::size_t i = 0; i < b.size(); ++i)
            if (b[i]) {
                f.add(i);
                f.add(b[i]);
            }
    }
    rep.fingerprint = f.value();
}

/** Time one call on the host clock. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    auto t0 = Clock::now();
    fn();
    return secondsSince(t0) * 1e3;
}

svc::TenantConfig
tenant(const std::string &name, const std::string &app,
       std::uint64_t bytes, std::uint32_t slot, std::uint64_t seed,
       double rate, std::uint64_t slo_ns)
{
    svc::TenantConfig c;
    c.name = name;
    c.app = app;
    c.bytes = bytes;
    c.slot = slot;
    c.seed = seed;
    c.arrivals.kind = svc::ArrivalKind::kPoisson;
    c.arrivals.ratePerSec = rate;
    c.sloNs = slo_ns;
    return c;
}

double
windowSeconds(sim::Tick w)
{
    return static_cast<double>(w) / static_cast<double>(sim::kTickSec);
}

/** How one repetition runs. */
struct RunOpts
{
    bool setupOnly = false;  ///< stop after set-up: one more sample
    Spans *spans = nullptr;  ///< span sink for the window, if traced
    unsigned simThreads = 1; ///< epoch-scheduler pool size
};

/**
 * Serve @p cfgs on one System built from @p pc: the single-node form
 * shared by dma_stream, dma_walk_rw and svc_temporal. @p prepare runs
 * after the tenants exist (policies, background jobs, warm-up) and
 * counts as set-up.
 */
Rep
runSingleNode(const hv::PlatformConfig &pc,
              const std::vector<svc::TenantConfig> &cfgs,
              sim::Tick window, const RunOpts &o,
              const std::function<void(hv::System &)> &prepare)
{
    Rep rep;
    auto t0 = Clock::now();
    std::unique_ptr<hv::System> sys;
    rep.buildMs = timeMs([&] {
        sys = std::make_unique<hv::System>(pc, o.simThreads);
    });
    svc::ServicePlane plane(*sys);
    double addMs = 0;
    for (const auto &c : cfgs)
        addMs += timeMs([&] { plane.addTenant(c); });
    rep.addTenantMs = addMs / static_cast<double>(cfgs.size());
    if (prepare)
        prepare(*sys);
    rep.setupS = secondsSince(t0);
    if (o.setupOnly)
        return rep;

    std::vector<hv::System *> nodes{sys.get()};
    Snapshot before = snapshot(nodes);
    {
        TraceAttach attach(o.spans, nodes);
        SegmentClock clock(sys->now(), window / kSegments);
        // ServicePlane::run(), spelled out to read the host clock at
        // every epoch barrier.
        plane.beginWindow(window);
        sys->sched.pumpUntil(
            [&] { return sys->now() >= plane.horizon() && plane.idle(); },
            [&] {
                plane.pump();
                clock.barrier(sys->now());
            });
        rep.segS = clock.finish(rep.probeS);
    }
    Snapshot after = snapshot(nodes);

    TenantTotals tt;
    double offered = 0;
    for (std::size_t i = 0; i < plane.numTenants(); ++i) {
        tt.add(plane.tenant(i));
        offered += cfgs[i].arrivals.ratePerSec * windowSeconds(window);
    }
    finishRep(rep, Delta(before, after), tt, offered,
              plane.fingerprint());
    return rep;
}

constexpr std::uint64_t
usToNs(std::uint64_t us)
{
    return us * 1000;
}

// ------------------------------------------------------------ workloads

/** dma_stream: 8 AES tenants, one per slot, 16 KiB requests on the
 *  MMIO path over 2 MiB pages: the DMA datapath's throughput case. */
Rep
dmaStream(std::uint64_t seed, const RunOpts &o)
{
    const sim::Tick window = 20 * sim::kTickMs;
    std::vector<svc::TenantConfig> cfgs;
    for (std::uint32_t i = 0; i < 8; ++i) {
        auto c = tenant("aes" + std::to_string(i), "AES", 16 << 10, i,
                        seed * 100 + i, 16000.0, usToNs(200));
        c.queueDepth = 256;
        cfgs.push_back(c);
    }
    return runSingleNode(hv::makeOptimusConfig("AES", 8), cfgs, window,
                         o, nullptr);
}

/** dma_walk_rw: 4 KiB pages; two LinkedList request tenants chase
 *  dependent random reads beside two endless MemBench tenants whose
 *  mixed random traffic spans far more than the IOTLB reaches. */
Rep
dmaWalkRw(std::uint64_t seed, const RunOpts &o)
{
    const sim::Tick window = 250 * sim::kTickMs;
    hv::PlatformConfig pc;
    pc.apps = {"LL", "LL", "MB", "MB"};
    pc.params.pageBytes = mem::kPage4K;
    std::vector<svc::TenantConfig> cfgs;
    for (std::uint32_t i = 0; i < 2; ++i)
        cfgs.push_back(tenant("ll" + std::to_string(i), "LL", 64 * 64, i,
                              seed * 100 + i, 8000.0, usToNs(500)));
    auto prepare = [seed](hv::System &sys) {
        for (std::uint32_t slot = 2; slot < 4; ++slot) {
            hv::AccelHandle &h = sys.attach(slot);
            const std::uint64_t wset = 64ULL << 20;
            mem::Gva base = h.dmaAlloc(wset, 64);
            using MB = accel::MembenchAccel;
            h.writeAppReg(MB::kRegBase, base.value());
            h.writeAppReg(MB::kRegWset, wset);
            h.writeAppReg(MB::kRegMode, MB::kMixed);
            h.writeAppReg(MB::kRegSeed, seed * 100 + slot);
            h.writeAppReg(MB::kRegTarget, 0); // endless
            // One request per 400 cycles per tenant: 2 x 1M DMAs/s,
            // nearly all IOTLB misses, keeps the two 560 ns walkers
            // about half busy.
            h.writeAppReg(MB::kRegGap, 400);
            h.start();
        }
        // Warm-up: MemBench reaches its steady miss rate (and fills
        // the IOTLB with its own pages) before the window opens.
        sys.run(sys.now() + 100 * sim::kTickUs);
    };
    return runSingleNode(pc, cfgs, window, o, prepare);
}

/** svc_temporal: 6 SHA tenants on the MMIO path time-share 2 slots (3
 *  per slot, 100 us round-robin slices), one of them bursty, beside 2
 *  ring-path tenants with a slot each. */
Rep
svcTemporal(std::uint64_t seed, const RunOpts &o)
{
    const sim::Tick window = 100 * sim::kTickMs;
    std::vector<svc::TenantConfig> cfgs;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const bool ring = i >= 6;
        auto c = tenant("t" + std::to_string(i), "SHA",
                        i % 3 == 2 ? 4096 : 512, ring ? i - 4 : i / 3,
                        seed * 100 + i, 20000.0, usToNs(300));
        if (ring) {
            c.cmdPath = ring::CmdPath::kRing;
            c.batchMax = 4;
        }
        c.queueDepth = 256;
        if (i == 5) {
            c.arrivals.kind = svc::ArrivalKind::kBursty;
            c.arrivals.onFraction = 0.5;
            c.arrivals.period = sim::kTickMs;
        }
        cfgs.push_back(c);
    }
    auto prepare = [](hv::System &sys) {
        for (std::uint32_t slot = 0; slot < 2; ++slot)
            sys.hv.setPolicy(slot, hv::SchedPolicy::kRoundRobin,
                             100 * sim::kTickUs);
    };
    return runSingleNode(hv::makeOptimusConfig("SHA", 4), cfgs, window,
                         o, prepare);
}

/** fleet_migrate: 4 nodes, 8 SHA tenants with a slot of their own on
 *  every node, least-loaded placement, a forced live migration every
 *  500 us. */
Rep
fleetMigrate(std::uint64_t seed, const RunOpts &o)
{
    const sim::Tick window = 100 * sim::kTickMs;
    const sim::Tick period = 500 * sim::kTickUs;
    Rep rep;
    auto t0 = Clock::now();
    fleet::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.policy = fleet::Policy::kLeastLoaded;
    cfg.rebalanceInterval = 0; // forced moves only
    cfg.node = hv::makeOptimusConfig("SHA", 8);
    std::unique_ptr<fleet::Cluster> cl;
    rep.buildMs = timeMs([&] {
        cl = std::make_unique<fleet::Cluster>(cfg, o.simThreads);
    });
    std::vector<fleet::FleetTenantSpec> specs;
    double addMs = 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
        fleet::FleetTenantSpec spec;
        spec.svc = tenant("t" + std::to_string(i), "SHA", 512, i,
                          seed * 100 + i, 20000.0, usToNs(500));
        spec.svc.queueDepth = 256;
        specs.push_back(spec);
        addMs += timeMs([&] { cl->addTenant(spec); });
    }
    rep.addTenantMs = addMs / static_cast<double>(specs.size());
    rep.setupS = secondsSince(t0);
    if (o.setupOnly)
        return rep;

    std::vector<hv::System *> nodes;
    for (unsigned n = 0; n < cl->numNodes(); ++n)
        nodes.push_back(&cl->node(n));
    Snapshot before = snapshot(nodes);

    // Round-robin over the tenants, each move to the next node.
    sim::Tick next = cl->now() + period;
    std::size_t victim = 0;
    double migrateUs = 0;
    std::uint64_t migrateCalls = 0;
    SegmentClock clock(cl->now(), window / kSegments);
    cl->setBarrierProbe([&]() {
        clock.barrier(cl->now());
        // No forced moves once the window closes, so the fleet drains.
        if (cl->now() < next || cl->now() >= cl->horizon())
            return;
        std::size_t t = victim % cl->numTenants();
        unsigned dst = (cl->tenantNode(t) + 1) % cl->numNodes();
        bool ok = false;
        migrateUs +=
            timeMs([&] { ok = cl->migrateTenant(t, dst); }) * 1e3;
        ++migrateCalls;
        if (ok) {
            next += period;
            ++victim;
        }
    });

    {
        TraceAttach attach(o.spans, nodes);
        cl->run(window);
        rep.segS = clock.finish(rep.probeS);
    }
    Snapshot after = snapshot(nodes);
    rep.migrateCallUs =
        migrateCalls ? migrateUs / static_cast<double>(migrateCalls) : 0;

    // A tenant's completions land on whichever node served them:
    // merge every binding.
    TenantTotals tt;
    double offered = 0;
    for (std::size_t t = 0; t < cl->numTenants(); ++t) {
        for (unsigned n = 0; n < cl->numNodes(); ++n)
            tt.add(cl->binding(t, n));
        offered +=
            specs[t].svc.arrivals.ratePerSec * windowSeconds(window);
    }
    finishRep(rep, Delta(before, after), tt, offered, cl->fingerprint(),
              cl->numNodes());

    const sim::Histogram &bo = cl->blackoutHist();
    const double pNN = perfbench::highestSupportedPercentile(
        bo.count(), {50, 75, 90, 95, 99, 99.9});
    auto &m = rep.sim;
    m["fleet.migrations"] = {
        static_cast<double>(cl->migrationsCompleted()), "count"};
    m["fleet.blackout_p50_us"] = {pct(bo.buckets(), 50) / 1e3, "us"};
    m["fleet.blackout_pNN_us"] = {
        pNN > 0 ? pct(bo.buckets(), pNN) / 1e3 : 0.0, "us"};
    m["fleet.blackout_pNN_pct"] = {pNN, "%"};
    if (cl->fleetArrivals() != tt.arrivals)
        rep.violations.push_back("fleet arrivals disagree with the "
                                 "sum over bindings");
    return rep;
}

struct Workload
{
    const char *name;
    Rep (*run)(std::uint64_t seed, const RunOpts &o);
};

const Workload kWorkloads[] = {
    {"dma_stream", dmaStream},
    {"dma_walk_rw", dmaWalkRw},
    {"svc_temporal", svcTemporal},
    {"fleet_migrate", fleetMigrate},
};

// --------------------------------------------------------------- output

/** The span-derived per-layer metrics of a traced repetition. */
void
addSpanMetrics(Metrics &out, const Spans &s)
{
    auto count = [](std::uint64_t n) {
        return Metric{static_cast<double>(n), "count"};
    };
    double tenantP99Max = 0;
    for (const auto &kv : s.dmaSpanByTenant)
        tenantP99Max = std::max(tenantP99Max, pct(kv.second, 99));
    const double muxWait =
        bucketCount(s.muxTransit)
            ? pct(s.muxTransit, 99) - static_cast<double>(s.muxTransitMin)
            : 0.0;
    out["fpga.mux_grants"] = count(s.muxGrants);
    out["fpga.mux_wait_p99_ns"] = {muxWait, "ns"};
    out["trace.records"] = count(s.records);
    out["trace.dma_spans"] = count(bucketCount(s.dmaSpan));
    out["trace.dma_span_p50_ns"] = {pct(s.dmaSpan, 50), "ns"};
    out["trace.dma_span_p99_ns"] = {pct(s.dmaSpan, 99), "ns"};
    out["trace.dma_span_tenant_p99_max_ns"] = {tenantP99Max, "ns"};
    out["trace.mux_unpaired"] = count(s.issueToRoot.unmatchedCloses() +
                                      s.issueToRoot.stillOpen());
    out["trace.channel_selects"] = count(s.channelSelects);
    out["trace.upi_select_frac"] = {
        s.channelSelects ? static_cast<double>(s.upiSelects) /
                               static_cast<double>(s.channelSelects)
                         : 0.0,
        "ratio"};
    out["trace.iotlb_hits"] = count(s.iotlbHits);
    out["trace.iotlb_misses"] = count(s.iotlbMisses);
    out["trace.iotlb_evicts"] = count(s.iotlbEvicts);
    out["trace.preempts"] = count(s.preempts);
    out["trace.preempt_slice_p50_us"] = {pct(s.preemptSlice, 50) / 1e3,
                                         "us"};
    out["trace.ring_spans"] = count(bucketCount(s.ringSpan));
    out["trace.ring_span_p50_us"] = {pct(s.ringSpan, 50) / 1e3, "us"};
    out["trace.ring_span_p99_us"] = {pct(s.ringSpan, 99) / 1e3, "us"};
    out["trace.ring_unpaired"] = count(s.ring.unmatchedCompletes());
}

void
printJson(bool correct, const Rep &ref, unsigned reps,
          const std::vector<std::string> &violations,
          const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"fingerprint\": \"%016llx\", \"reps\": %u, "
                "\"violations\": [",
                correct ? "true" : "false",
                static_cast<unsigned long long>(ref.attempted),
                static_cast<unsigned long long>(ref.failed),
                static_cast<unsigned long long>(ref.fingerprint), reps);
    for (std::size_t i = 0; i < violations.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", violations[i].c_str());
    std::printf("], \"metrics\": {");
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), v, m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        if (k == "--workload")
            name = argv[i + 1];
        else if (k == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (k == "--seconds")
            seconds = std::strtod(argv[i + 1], nullptr);
        else if (k == "--trace")
            traced = std::strcmp(argv[i + 1], "0") != 0;
        else
            return usage();
    }
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            wl = &w;
    if (!wl || !(seconds > 0))
        return usage();

    // Untraced: at least kMinReps serial repetitions. Traced: the
    // third repetition runs on a two-thread epoch-scheduler pool (once:
    // it is slow), the others alternate serial with and without the
    // span sink, at least two of each. Set-up time is sampled at least
    // kMinSetups times; set-up-only repetitions make up the difference.
    constexpr unsigned kMinReps = 3;
    constexpr unsigned kMaxReps = 64;
    constexpr unsigned kMinSetups = 31;
    const unsigned minReps = traced ? 5 : kMinReps;
    std::vector<Rep> plain, withTrace, pooled;
    Spans spans;
    auto t0 = Clock::now();
    for (unsigned r = 0; r < kMaxReps; ++r) {
        RunOpts o;
        if (traced && r == 2) {
            o.simThreads = 2;
            pooled.push_back(wl->run(seed, o));
        } else if (traced && r % 2 == 1) {
            // Keep only the latest traced repetition's spans; every
            // traced repetition sees the same records.
            spans = Spans{};
            o.spans = &spans;
            withTrace.push_back(wl->run(seed, o));
        } else {
            plain.push_back(wl->run(seed, o));
        }
        if (r + 1 >= minReps && secondsSince(t0) >= seconds)
            break;
    }
    std::vector<Rep> setupOnly;
    while (plain.size() + withTrace.size() + setupOnly.size() <
           kMinSetups) {
        RunOpts o;
        o.setupOnly = true;
        setupOnly.push_back(wl->run(seed, o));
    }

    // Repetition gate: every repetition, traced or not, serial or
    // pooled, must produce the same simulated results.
    const Rep &ref = plain.front();
    std::vector<std::string> violations = ref.violations;
    for (const auto *set : {&plain, &withTrace, &pooled})
        for (const Rep &r : *set)
            if (r.fingerprint != ref.fingerprint) {
                violations.push_back("fingerprint differs across "
                                     "repetitions");
                break;
            }

    std::vector<double> setupS, buildMs, addMs, migUs;
    for (const auto *set : {&plain, &withTrace, &setupOnly})
        for (const Rep &r : *set) {
            setupS.push_back(r.setupS);
            buildMs.push_back(r.buildMs);
            addMs.push_back(r.addTenantMs);
        }
    std::vector<std::vector<double>> plainSegs, tracedSegs;
    std::vector<double> refS, probes;
    for (const Rep &r : plain) {
        plainSegs.push_back(r.segS);
        refS.push_back(perfbench::referenceSeconds(sum(r.segS), r.probeS,
                                                   RefProbe::kNominalS));
        probes.insert(probes.end(), r.probeS.begin(), r.probeS.end());
        migUs.push_back(r.migrateCallUs);
    }
    for (const Rep &r : withTrace)
        tracedSegs.push_back(r.segS);
    const double bestS = perfbench::bestOfK(plainSegs);
    const double bestRefS = *std::min_element(refS.begin(), refS.end());
    std::fprintf(stderr, "%s seed %llu: window host seconds per "
                         "repetition:",
                 wl->name, static_cast<unsigned long long>(seed));
    for (const auto &segs : plainSegs)
        std::fprintf(stderr, " %.3f", sum(segs));
    std::fprintf(stderr, "; best of k per segment %.3f; in reference "
                         "seconds:",
                 bestS);
    for (double t : refS)
        std::fprintf(stderr, " %.3f", t);
    std::fprintf(stderr, "; probe median %.1f us\n",
                 perfbench::median(probes) * 1e6);

    // Every simulated metric is printed in both modes; run.py keeps
    // the ones BENCHMARK.json lists for the mode.
    Metrics out = ref.sim;
    out["reps"] = {static_cast<double>(plain.size()), "count"};
    if (!traced) {
        out["setup_s"] = {perfbench::median(setupS), "s"};
        out["peak_rss_mb"] = {peakRssMb(), "MiB"};
        out["dma_per_ref_s"] = {
            static_cast<double>(ref.dmas) / bestRefS, "1/s"};
        out["req_per_ref_s"] = {
            static_cast<double>(ref.completed) / bestRefS, "1/s"};
    } else {
        // Host spans around the benchmark's own calls.
        const double tracedS = perfbench::bestOfK(tracedSegs);
        const double pooledS = sum(pooled.front().segS);
        out["sim.host_ns_per_event"] = {
            bestS * 1e9 / out["sim.events"].value, "ns"};
        out["host.build_system_ms"] = {perfbench::median(buildMs), "ms"};
        out["host.add_tenant_ms"] = {perfbench::median(addMs), "ms"};
        out["host.run_window_ms"] = {bestS * 1e3, "ms"};
        out["host.ref_probe_us"] = {perfbench::median(probes) * 1e6, "us"};
        out["host.pool2_run_window_ms"] = {pooledS * 1e3, "ms"};
        out["sim.pool2_slowdown"] = {pooledS / bestS, "ratio"};
        out["host.migrate_call_us"] = {perfbench::median(migUs), "us"};
        out["trace.overhead_frac"] = {tracedS / bestS - 1.0, "ratio"};
        addSpanMetrics(out, spans);
    }

    printJson(violations.empty(), ref,
              static_cast<unsigned>(plain.size() + withTrace.size() +
                                    pooled.size()),
              violations, out);
    return 0;
}

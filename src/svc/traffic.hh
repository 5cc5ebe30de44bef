/**
 * @file
 * Deterministic request-arrival generators for the service plane:
 * fixed-rate, Poisson, and bursty (ON-OFF) processes, all seeded
 * through sim::Rng and free of libm transcendentals, so a traffic
 * trace is bit-identical across platforms and across --jobs counts.
 */

#ifndef OPTIMUS_SVC_TRAFFIC_HH
#define OPTIMUS_SVC_TRAFFIC_HH

#include <cstdint>
#include <optional>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace optimus::svc {

/**
 * Natural logarithm computed with only IEEE-754 basic operations
 * (frexp, +, -, *, /), no libm log(): decompose x = m * 2^e with m
 * in [sqrt(1/2), sqrt(2)), then sum the atanh series for ln(m) to a
 * fixed term count. Basic IEEE ops are correctly rounded everywhere,
 * so the result — and every Poisson interarrival gap derived from it
 * — is bit-identical across compilers and platforms. Accurate to
 * ~1 ulp over the (0, 1] range the samplers use. Requires x > 0.
 */
double detLog(double x);

/** Arrival-process shapes. */
enum class ArrivalKind
{
    kFixed,   ///< constant interarrival gap (rate 1/gap)
    kPoisson, ///< exponential gaps (memoryless open-loop load)
    kBursty,  ///< ON-OFF: Poisson bursts at rate/onFraction while ON
};

/** One tenant's arrival process. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::kPoisson;
    double ratePerSec = 1000.0; ///< long-run mean arrival rate

    /** Bursty only: fraction of each period that is ON (0 < f <= 1);
     *  the ON rate is ratePerSec / onFraction so the long-run mean
     *  still equals ratePerSec. */
    double onFraction = 0.5;
    /** Bursty only: ON-OFF cycle length in ticks. */
    sim::Tick period = sim::kTickMs;
};

/**
 * A deterministic arrival-time stream: nextOffset() returns strictly
 * non-decreasing offsets (ticks since the generator's epoch), one
 * per request. The bursty process keeps a virtual "ON-time" clock
 * and maps it onto wall time through the fixed ON-OFF schedule, so
 * burst phases are aligned to the epoch, not to random state.
 */
class ArrivalGen
{
  public:
    ArrivalGen(const ArrivalSpec &spec, std::uint64_t seed);

    /** Offset of the next arrival, in ticks since the epoch. */
    sim::Tick nextOffset();
    /** The offset nextOffset() returns next, without taking it: an
     *  arrival past one window's horizon opens the next window. */
    sim::Tick peekOffset();

    const ArrivalSpec &spec() const { return _spec; }

  private:
    /** One exponential gap with the given mean, in ticks (>= 1). */
    sim::Tick expGap(double mean_ticks);
    /** Advance the process by one arrival. */
    sim::Tick draw();

    ArrivalSpec _spec;
    sim::Rng _rng;
    sim::Tick _clock = 0;   ///< wall-time offset of the last arrival
    std::optional<sim::Tick> _peeked; ///< drawn, not yet taken
    sim::Tick _onClock = 0; ///< bursty: accumulated ON-time
    sim::Tick _fixedGap = 1;
    sim::Tick _onPerPeriod = 1; ///< bursty: ON ticks per period
    double _meanGap = 0;        ///< mean gap in ticks (ON-time for
                                ///< bursty)
};

} // namespace optimus::svc

#endif // OPTIMUS_SVC_TRAFFIC_HH

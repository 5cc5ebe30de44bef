#include "svc/traffic.hh"

#include <cmath>

#include "sim/logging.hh"

namespace optimus::svc {

double
detLog(double x)
{
    // x = m * 2^e, m in [0.5, 1); re-center m into
    // [sqrt(1/2), sqrt(2)) so the series argument stays small.
    int e = 0;
    double m = std::frexp(x, &e);
    if (m < 0.70710678118654752440) {
        m *= 2.0;
        --e;
    }
    // ln(m) = 2 * atanh(t) with t = (m-1)/(m+1); |t| <= 0.1716 so
    // each term shrinks by >= 34x and 16 terms reach ~1e-24,
    // far below double precision. Fixed count: no data-dependent
    // exit, identical rounding sequence for identical inputs.
    double t = (m - 1.0) / (m + 1.0);
    double t2 = t * t;
    double sum = 0.0;
    double term = t;
    for (int k = 0; k < 16; ++k) {
        sum += term / static_cast<double>(2 * k + 1);
        term *= t2;
    }
    return 2.0 * sum + static_cast<double>(e) * 0.69314718055994530942;
}

ArrivalGen::ArrivalGen(const ArrivalSpec &spec, std::uint64_t seed)
    : _spec(spec), _rng(seed)
{
    if (_spec.ratePerSec <= 0)
        OPTIMUS_FATAL("ArrivalGen: ratePerSec must be positive");
    double gap = static_cast<double>(sim::kTickSec) / _spec.ratePerSec;
    switch (_spec.kind) {
      case ArrivalKind::kFixed:
        _fixedGap = gap < 1.0 ? sim::Tick{1}
                              : static_cast<sim::Tick>(gap);
        break;
      case ArrivalKind::kPoisson:
        _meanGap = gap;
        break;
      case ArrivalKind::kBursty: {
        if (_spec.onFraction <= 0.0 || _spec.onFraction > 1.0)
            OPTIMUS_FATAL("ArrivalGen: onFraction must be in (0, 1]");
        if (_spec.period == 0)
            OPTIMUS_FATAL("ArrivalGen: bursty period must be nonzero");
        // Mean gap in ON-time; the ON rate is rate/onFraction, so
        // the ON-time gap is the wall gap scaled by onFraction.
        _meanGap = gap * _spec.onFraction;
        double on = static_cast<double>(_spec.period) *
                    _spec.onFraction;
        _onPerPeriod = on < 1.0 ? sim::Tick{1}
                                : static_cast<sim::Tick>(on);
        break;
      }
    }
}

sim::Tick
ArrivalGen::expGap(double mean_ticks)
{
    // u uniform in (0, 1]: never 0, so detLog is always defined and
    // the gap is finite.
    double u = static_cast<double>((_rng.next() >> 11) + 1) *
               0x1.0p-53;
    double g = -detLog(u) * mean_ticks;
    return g < 1.0 ? sim::Tick{1} : static_cast<sim::Tick>(g);
}

sim::Tick
ArrivalGen::nextOffset()
{
    sim::Tick t = peekOffset();
    _peeked.reset();
    return t;
}

sim::Tick
ArrivalGen::peekOffset()
{
    if (!_peeked)
        _peeked = draw();
    return *_peeked;
}

sim::Tick
ArrivalGen::draw()
{
    switch (_spec.kind) {
      case ArrivalKind::kFixed:
        _clock += _fixedGap;
        return _clock;
      case ArrivalKind::kPoisson:
        _clock += expGap(_meanGap);
        return _clock;
      case ArrivalKind::kBursty:
        // Advance the virtual ON-time clock, then map it onto wall
        // time: each period contributes _onPerPeriod ON ticks at its
        // front, followed by the OFF gap.
        _onClock += expGap(_meanGap);
        return (_onClock / _onPerPeriod) * _spec.period +
               (_onClock % _onPerPeriod);
    }
    return _clock; // unreachable
}

} // namespace optimus::svc

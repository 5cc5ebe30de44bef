#include "accel/image_accels.hh"

#include <cstring>

#include "sim/logging.hh"

namespace optimus::accel {

// ------------------------------------------------------------------ GRS

GrsAccel::GrsAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : StreamingAccelerator(eq, params, std::move(name), 200,
                           Tuning{64, 4}, scope)
{
}

void
GrsAccel::streamBegin()
{
    _outLine.fill(0);
    _outFill = 0;
    _outOffset = 0;
}

void
GrsAccel::consumeLine(std::uint64_t offset, const std::uint8_t *data,
                      std::uint32_t bytes)
{
    (void)offset;
    // 16 RGBX pixels per input line -> 16 luma bytes.
    for (std::uint32_t px = 0; px + 4 <= bytes; px += 4) {
        _outLine[_outFill++] = algo::rgbxLuma(data + px);
        if (_outFill == sim::kCacheLineBytes)
            flushOutLine();
    }
}

void
GrsAccel::flushOutLine()
{
    emit(dst() + _outOffset, _outLine.data(),
         static_cast<std::uint32_t>(_outFill));
    _outOffset += _outFill;
    _outFill = 0;
}

void
GrsAccel::streamEnd()
{
    if (_outFill > 0)
        flushOutLine();
}

void
GrsAccel::saveTransformState(sim::StateWriter &w) const
{
    w.put(_outLine).put(_outFill).put(_outOffset);
}

void
GrsAccel::restoreTransformState(sim::StateReader &r)
{
    r.get(_outLine).get(_outFill).get(_outOffset);
    // The fill indexes the output line, which flushes when full.
    r.check(_outFill < sim::kCacheLineBytes);
}

// ---------------------------------------------------------- row filters

RowFilterAccel::RowFilterAccel(sim::EventQueue &eq,
                               const sim::PlatformParams &params,
                               std::string name,
                               std::uint32_t read_gap_cycles,
                               sim::Scope scope)
    : StreamingAccelerator(eq, params, std::move(name), 200,
                           Tuning{64, read_gap_cycles}, scope)
{
}

bool
RowFilterAccel::geometryValid() const
{
    return width() > 0 && width() % sim::kCacheLineBytes == 0 &&
           width() <= kMaxWidth && streamLen() % width() == 0;
}

void
RowFilterAccel::streamBegin()
{
    // The width and LEN are guest registers: a geometry the line
    // buffers cannot hold ends this job, not the simulator.
    if (!geometryValid()) {
        fail();
        return;
    }
    _rowPrev.clear();
    _rowPrev2.clear();
    _rowCur.clear();
    _rowCur.reserve(width());
    _rowsCompleted = 0;
}

void
RowFilterAccel::consumeLine(std::uint64_t offset,
                            const std::uint8_t *data,
                            std::uint32_t bytes)
{
    (void)offset;
    _rowCur.insert(_rowCur.end(), data, data + bytes);
    if (_rowCur.size() >= width())
        rowCompleted();
}

void
RowFilterAccel::rowCompleted()
{
    ++_rowsCompleted;
    if (_rowsCompleted >= 2) {
        // Row r just completed; output row r-1 uses rows r-2..r
        // (the topmost row clamps to itself).
        const std::vector<std::uint8_t> &above =
            _rowsCompleted == 2 ? _rowPrev : _rowPrev2;
        emitFilteredRow(above, _rowPrev, _rowCur, _rowsCompleted - 2);
    }
    _rowPrev2 = std::move(_rowPrev);
    _rowPrev = std::move(_rowCur);
    _rowCur.clear();
    _rowCur.reserve(width());
}

void
RowFilterAccel::streamEnd()
{
    // The bottom row clamps downward onto itself.
    if (height() == 1) {
        emitFilteredRow(_rowPrev, _rowPrev, _rowPrev, 0);
    } else if (_rowsCompleted >= 2) {
        emitFilteredRow(_rowPrev2, _rowPrev, _rowPrev,
                        _rowsCompleted - 1);
    }
}

void
RowFilterAccel::emitFilteredRow(const std::vector<std::uint8_t> &above,
                                const std::vector<std::uint8_t> &center,
                                const std::vector<std::uint8_t> &below,
                                std::uint64_t out_row)
{
    const std::uint64_t w = width();
    algo::GrayImage window;
    window.width = static_cast<std::uint32_t>(w);
    window.height = 3;
    window.pixels.resize(3 * w);
    std::memcpy(window.pixels.data(), above.data(), w);
    std::memcpy(window.pixels.data() + w, center.data(), w);
    std::memcpy(window.pixels.data() + 2 * w, below.data(), w);

    std::vector<std::uint8_t> out(w);
    for (std::uint64_t x = 0; x < w; ++x)
        out[x] = filterPixel(window, static_cast<std::int64_t>(x));

    for (std::uint64_t off = 0; off < w; off += sim::kCacheLineBytes) {
        emit(dst() + out_row * w + off, out.data() + off,
             static_cast<std::uint32_t>(sim::kCacheLineBytes));
    }
}

void
RowFilterAccel::saveTransformState(sim::StateWriter &w) const
{
    w.put(_rowsCompleted)
        .putSpan(_rowPrev)
        .putSpan(_rowPrev2)
        .putSpan(_rowCur);
}

void
RowFilterAccel::restoreTransformState(sim::StateReader &r)
{
    if (!r.check(geometryValid()))
        return;
    const std::uint64_t w = width();
    r.get(_rowsCompleted)
        .getSpan(_rowPrev, w)
        .getSpan(_rowPrev2, w)
        .getSpan(_rowCur, w);
    // The window reads whole rows: each completed row the next output
    // needs holds exactly one image row, the filling row stays short
    // of one, and together they account for every byte consumed.
    r.check(_rowsCompleted <= height() && _rowCur.size() < w &&
            _rowPrev.size() == (_rowsCompleted >= 1 ? w : 0) &&
            _rowPrev2.size() == (_rowsCompleted >= 2 ? w : 0) &&
            _rowsCompleted * w + _rowCur.size() == streamPos());
}

GauAccel::GauAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : RowFilterAccel(eq, params, std::move(name), 6, scope)
{
}

SblAccel::SblAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : RowFilterAccel(eq, params, std::move(name), 6, scope)
{
}

} // namespace optimus::accel

#include "alrescha/sim/cache.hh"

#include "common/logging.hh"

namespace alr {

CacheModel::CacheModel(const AccelParams &params, MemoryModel *memory)
    : _params(params), _memory(memory)
{
    ALR_ASSERT(memory != nullptr, "cache needs a memory model");
    uint32_t nlines =
        std::max<uint32_t>(1, params.cacheBytes / params.cacheLineBytes);
    _lines.assign(nlines, Line{});
}

uint64_t
CacheModel::touch(CacheVec vec, Index chunk)
{
    // Direct-mapped: hash (vec, chunk) onto a line (lineIndex()).
    size_t idx = lineIndex(vec, chunk);
    Line &line = _lines[idx];
    if (line.valid && line.vec == vec && line.chunk == chunk) {
        ++_hits;
        return 0;
    }
    ++_misses;
    line.valid = true;
    line.vec = vec;
    line.chunk = chunk;
    return _memory->recordRandomAccess();
}

uint64_t
CacheModel::read(CacheVec vec, Index chunk, bool on_critical_path,
                 bool *was_miss)
{
    ++_reads;
    // Port occupancy: the SRAM is pipelined, accepting one access per
    // cycle; cacheLatency is the (hidden or exposed) access latency.
    _busyCycles += 1.0;
    uint64_t fill = touch(vec, chunk);
    if (was_miss)
        *was_miss = fill > 0;
    if (!on_critical_path) {
        // Prefetched: the miss costs bandwidth (the line fill shares
        // the pipe with the block stream), never latency.
        return fill > 0 ? _memory->streamCycles(_params.cacheLineBytes)
                        : 0;
    }
    if (fill > 0)
        return fill + uint64_t(_params.cacheLatency);
    return uint64_t(_params.cacheLatency);
}

uint64_t
CacheModel::write(CacheVec vec, Index chunk, bool *was_miss)
{
    ++_writes;
    _busyCycles += 1.0;
    // Writes are buffered; allocation happens off the critical path.
    uint64_t fill = touch(vec, chunk);
    if (was_miss)
        *was_miss = fill > 0;
    return 0;
}

void
CacheModel::Shadow::commit()
{
    _cache._lines.swap(_lines);
    _cache._reads += double(_reads);
    _cache._writes += double(_writes);
    _cache._hits += double(_hits);
    _cache._misses += double(_misses);
    _cache._busyCycles += double(_reads + _writes);
    _cache._memory->noteRandomAccesses(double(_misses));
}

void
CacheModel::reset()
{
    for (Line &line : _lines)
        line.valid = false;
    _reads.reset();
    _writes.reset();
    _hits.reset();
    _misses.reset();
    _busyCycles.reset();
}

size_t
CacheModel::occupancy() const
{
    size_t valid = 0;
    for (const Line &line : _lines)
        valid += line.valid ? 1 : 0;
    return valid;
}

void
CacheModel::registerStats(stats::StatGroup &group)
{
    _stats.registerScalar("reads", &_reads, "chunk reads");
    _stats.registerScalar("writes", &_writes, "chunk writes");
    _stats.registerScalar("hits", &_hits, "line hits");
    _stats.registerScalar("misses", &_misses, "line misses");
    _stats.registerScalar("busy_cycles", &_busyCycles,
                          "cycles the cache port was occupied");
    group.addChild(&_stats);
}

} // namespace alr

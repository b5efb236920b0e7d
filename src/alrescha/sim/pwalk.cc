#include "alrescha/sim/pwalk.hh"

#include <algorithm>
#include <vector>

#include "alrescha/sim/rcu.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/timeline.hh"

namespace alr {
namespace pwalk {

using profile::Cause;

namespace {

/** Access kinds the shadow replay distinguishes (read()/write() and
 *  the critical-path flag of CacheModel). */
enum : uint8_t { kWrite = 0, kRead = 1, kCritRead = 2 };

/**
 * The first access to a line inside a partition: its hit/miss outcome
 * depends on the predecessor partitions, so it is recorded here and
 * resolved at combine time instead of guessed.
 */
struct Boundary
{
    uint32_t line = 0;
    CacheVec vec = CacheVec::Xt;
    Index chunk = 0;
    uint8_t kind = kRead;
    uint32_t slot = 0;
};

/** One partition's shadow-replay outcome. */
struct Part
{
    /** Resolved cycle contributions (stream timeline for D-SymGS);
     *  combine adds the resolved boundary read latencies. */
    uint64_t cycles = 0;
    uint64_t par = 0;
    /** Counter deltas (exact integers; flushed in one batch). */
    double reads = 0.0, writes = 0.0, hits = 0.0, misses = 0.0;
    std::vector<uint8_t> touched;
    std::vector<CacheModel::LineImage> img;
    std::vector<Boundary> boundary;
    /** Resolved per-access results, indexed by (local path, rep). */
    std::vector<uint8_t> outMiss;
    std::vector<uint8_t> xMiss;
    std::vector<uint32_t> xLat;
    std::vector<uint8_t> dMiss;
    std::vector<uint32_t> dLat;
};

/**
 * Shadow replay of one partition's cache accesses.  Mirrors
 * CacheModel::read/write semantics against the partition-private line
 * images; returns the access latency (0 for still-unresolved boundary
 * accesses -- their latency is added at combine time).
 */
class Shadow
{
  public:
    Shadow(const CacheModel &cache, Part &p, uint64_t stream_line_lat,
           uint64_t crit_hit_lat, uint64_t crit_miss_lat)
        : _cache(cache), _p(p), _streamLineLat(stream_line_lat),
          _critHitLat(crit_hit_lat), _critMissLat(crit_miss_lat)
    {
    }

    uint64_t access(CacheVec vec, Index chunk, uint8_t kind,
                    uint32_t slot)
    {
        if (kind == kWrite)
            _p.writes += 1.0;
        else
            _p.reads += 1.0;
        size_t li = _cache.lineIndex(vec, chunk);
        if (!_p.touched[li]) {
            _p.touched[li] = 1;
            _p.img[li] = CacheModel::LineImage{true, vec, chunk};
            _p.boundary.push_back(
                Boundary{uint32_t(li), vec, chunk, kind, slot});
            return 0;
        }
        const CacheModel::LineImage &cl = _p.img[li];
        bool hit = cl.valid && cl.vec == vec && cl.chunk == chunk;
        if (hit)
            _p.hits += 1.0;
        else
            _p.misses += 1.0;
        _p.img[li] = CacheModel::LineImage{true, vec, chunk};
        return record(_p, hit, kind, slot, _streamLineLat, _critHitLat,
                      _critMissLat);
    }

    /** Store an access outcome; shared with the combine-time boundary
     *  resolution so both sides apply identical latency rules. */
    static uint64_t record(Part &p, bool hit, uint8_t kind,
                           uint32_t slot, uint64_t stream_line_lat,
                           uint64_t crit_hit_lat, uint64_t crit_miss_lat)
    {
        if (kind == kRead) {
            uint64_t lat = hit ? 0 : stream_line_lat;
            p.xMiss[slot] = hit ? 0 : 1;
            p.xLat[slot] = uint32_t(lat);
            return lat;
        }
        if (kind == kCritRead) {
            uint64_t lat = hit ? crit_hit_lat : crit_miss_lat;
            p.dMiss[slot] = hit ? 0 : 1;
            p.dLat[slot] = uint32_t(lat);
            return lat;
        }
        p.outMiss[slot] = hit ? 0 : 1;
        return 0;
    }

  private:
    const CacheModel &_cache;
    Part &_p;
    uint64_t _streamLineLat;
    uint64_t _critHitLat;
    uint64_t _critMissLat;
};

/** Latency constants the cache model charges, precomputed once. */
struct Lat
{
    uint64_t streamLine; ///< streaming-read miss contention
    uint64_t critHit;    ///< critical-path hit (cacheLatency)
    uint64_t critMiss;   ///< critical-path miss (DRAM fill + access)

    Lat(const AccelParams &params, const MemoryModel &mem)
    {
        streamLine = mem.streamCycles(params.cacheLineBytes);
        critHit = uint64_t(params.cacheLatency);
        critMiss = uint64_t(params.dramLatency) + streamLine +
                   uint64_t(params.cacheLatency);
    }
};

/**
 * Combine partitions in index order: resolve each partition's boundary
 * accesses against the composed line state, fold its counter deltas,
 * and build the cycle prefix sums.  @p cur enters as the real cache's
 * line state and leaves as the state after the last partition.
 */
void
combineParts(std::vector<Part> &parts,
             std::vector<CacheModel::LineImage> &cur, const Lat &lat,
             std::vector<uint64_t> &prefix, uint64_t base,
             double &reads, double &writes, double &hits, double &misses)
{
    prefix.assign(parts.size() + 1, 0);
    prefix[0] = base;
    for (size_t pi = 0; pi < parts.size(); ++pi) {
        Part &p = parts[pi];
        // Each boundary access is the first touch of its line in this
        // partition, so all of them resolve against the pre-partition
        // state; the final images then advance the composed state.
        for (const Boundary &b : p.boundary) {
            const CacheModel::LineImage &cl = cur[b.line];
            bool hit =
                cl.valid && cl.vec == b.vec && cl.chunk == b.chunk;
            if (hit)
                p.hits += 1.0;
            else
                p.misses += 1.0;
            uint64_t l = Shadow::record(p, hit, b.kind, b.slot,
                                        lat.streamLine, lat.critHit,
                                        lat.critMiss);
            if (b.kind == kRead)
                p.cycles += l;
        }
        for (size_t li = 0; li < cur.size(); ++li)
            if (p.touched[li])
                cur[li] = p.img[li];
        reads += p.reads;
        writes += p.writes;
        hits += p.hits;
        misses += p.misses;
        prefix[pi + 1] = prefix[pi] + p.cycles;
    }
}

/** Snapshot / write back the real cache's line state. */
std::vector<CacheModel::LineImage>
snapshotLines(const CacheModel &cache)
{
    std::vector<CacheModel::LineImage> cur(cache.lineCount());
    for (size_t li = 0; li < cur.size(); ++li)
        cur[li] = cache.lineImage(li);
    return cur;
}

void
writeBackLines(CacheModel &cache,
               const std::vector<CacheModel::LineImage> &cur)
{
    for (size_t li = 0; li < cur.size(); ++li)
        cache.setLineImage(li, cur[li]);
}

void
runParts(ThreadPool *pool, size_t nparts,
         const std::function<void(size_t)> &fn)
{
    if (pool && nparts > 1) {
        pool->parallelFor(0, nparts, fn);
    } else {
        for (size_t pi = 0; pi < nparts; ++pi)
            fn(pi);
    }
}

} // namespace

GemvTiming
gemvWalk(const Ctx &ctx, const ExecSchedule &S, size_t k,
         profile::RunScope &prof)
{
    GemvTiming t;
    if (S.pathCount == 0)
        return t;

    const AccelParams &params = ctx.params;
    CacheModel &cache = ctx.rcu.cache();
    const Lat lat(params, ctx.memory);
    const uint64_t lineBytes = params.cacheLineBytes;
    const uint64_t cfgExposed = uint64_t(
        std::max(0, params.configCycles - params.drainCycles()));
    const size_t reps = k == 0 ? 1 : k;
    const size_t nparts = S.partBegin.size() - 1;
    const size_t lineCount = cache.lineCount();

    // Run-start reconfiguration: the one transition whose predecessor
    // is runtime state, replayed through the real RCU.
    uint64_t hidden0 = 0;
    uint64_t cfg0 = ctx.rcu.reconfigure(S.dp[0], &hidden0);

    // Phase B: replay partitions against private shadow line state.
    std::vector<Part> parts(nparts);
    runParts(ctx.pool, nparts, [&](size_t pi) {
        Part &p = parts[pi];
        const size_t pb = S.partBegin[pi], pe = S.partBegin[pi + 1];
        p.touched.assign(lineCount, 0);
        p.img.resize(lineCount);
        p.outMiss.assign((pe - pb) * reps, 0);
        p.xMiss.assign((pe - pb) * reps, 0);
        p.xLat.assign((pe - pb) * reps, 0);
        Shadow shadow(cache, p, lat.streamLine, lat.critHit,
                      lat.critMiss);
        for (size_t i = pb; i < pe; ++i) {
            const uint32_t lo = uint32_t((i - pb) * reps);
            p.cycles += S.cfgCycles[i];
            p.cycles += S.fillCycles[i];
            if (S.writeOutRow[i] >= 0) {
                for (size_t j = 0; j < reps; ++j)
                    shadow.access(CacheVec::Out,
                                  Index(S.writeOutRow[i]), kWrite,
                                  lo + uint32_t(j));
            }
            for (size_t j = 0; j < reps; ++j)
                p.cycles += shadow.access(S.operandVec[i],
                                          S.blockCol[i], kRead,
                                          lo + uint32_t(j));
            uint64_t bc =
                k == 0 ? S.streamCycles[i]
                       : std::max(S.spmmMemCycles[i],
                                  uint64_t(S.streamedRows[i]) * k);
            p.cycles += bc;
            p.par += bc;
        }
    });

    // Phase C: ordered combine against the real cache state.
    std::vector<CacheModel::LineImage> cur = snapshotLines(cache);
    std::vector<uint64_t> prefix;
    double reads = 0.0, writes = 0.0, hits = 0.0, misses = 0.0;
    combineParts(parts, cur, lat, prefix, cfg0, reads, writes, hits,
                 misses);

    // The final Out writeback sees the fully composed state.
    std::vector<uint8_t> finalMiss(reps, 0);
    if (S.finalOutRow >= 0) {
        for (size_t j = 0; j < reps; ++j) {
            size_t li =
                cache.lineIndex(CacheVec::Out, Index(S.finalOutRow));
            CacheModel::LineImage &cl = cur[li];
            bool hit = cl.valid && cl.vec == CacheVec::Out &&
                       cl.chunk == Index(S.finalOutRow);
            finalMiss[j] = hit ? 0 : 1;
            if (hit)
                hits += 1.0;
            else
                misses += 1.0;
            writes += 1.0;
            cl = CacheModel::LineImage{true, CacheVec::Out,
                                       Index(S.finalOutRow)};
        }
    }
    writeBackLines(cache, cur);
    cache.noteBatch(reads, writes, hits, misses);
    ctx.memory.noteRandomAccesses(misses);

    // In-order arithmetic scan: re-derive the run cycles from the
    // resolved per-access results, emitting profile charges (and, for
    // SpMV, timeline events) in the reference model's exact order, and
    // assert the partition prefix sums at every boundary -- the
    // per-partition conservation oracle.
    const bool spansOn = timeline::enabled() && k == 0;
    uint64_t running = 0;
    uint64_t par = 0;
    int64_t segStart = -1;
    DataPathType segDp{};
    if (spansOn && cfg0)
        timeline::span("reconfig", "rcu", timeline::kTidRcu, ctx.tlBase,
                       cfg0);
    prof.add(S.dp[0], S.blockRow[0], Cause::ReconfigHidden, hidden0);
    prof.add(S.dp[0], S.blockRow[0], Cause::ReconfigExposed,
             cfg0 - hidden0);
    running += cfg0;
    for (size_t pi = 0; pi < nparts; ++pi) {
        ALR_ASSERT(running == prefix[pi],
                   "partition prefix conservation violated");
        const Part &p = parts[pi];
        const size_t pb = S.partBegin[pi], pe = S.partBegin[pi + 1];
        for (size_t i = pb; i < pe; ++i) {
            const size_t lo = (i - pb) * reps;
            if (spansOn && segStart >= 0 && S.dp[i] != segDp) {
                timeline::span(toString(segDp), "datapath",
                               timeline::kTidDataPath,
                               ctx.tlBase + segStart,
                               running - uint64_t(segStart));
                segStart = -1;
            }
            if (spansOn && S.cfgCycles[i])
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               ctx.tlBase + running, S.cfgCycles[i]);
            if (S.cfgCycles[i]) {
                prof.add(S.dp[i], S.blockRow[i], Cause::ReconfigHidden,
                         S.cfgCycles[i] - cfgExposed);
                prof.add(S.dp[i], S.blockRow[i], Cause::ReconfigExposed,
                         cfgExposed);
            }
            running += S.cfgCycles[i];
            if (spansOn && S.fillCycles[i])
                timeline::span("fill", "fcu", timeline::kTidFcu,
                               ctx.tlBase + running, S.fillCycles[i]);
            prof.add(S.dp[i], S.blockRow[i], Cause::FcuCompute,
                     S.fillCycles[i]);
            running += S.fillCycles[i];
            if (spansOn && segStart < 0) {
                segStart = int64_t(running);
                segDp = S.dp[i];
            }
            if (S.writeOutRow[i] >= 0) {
                for (size_t j = 0; j < reps; ++j)
                    if (p.outMiss[lo + j])
                        prof.add(S.dp[i], S.writeOutRow[i],
                                 Cause::CacheMiss, 0, lineBytes);
            }
            for (size_t j = 0; j < reps; ++j) {
                prof.add(S.dp[i], S.blockRow[i], Cause::CacheMiss,
                         p.xLat[lo + j],
                         p.xMiss[lo + j] ? lineBytes : 0);
                running += p.xLat[lo + j];
            }
            if (k == 0) {
                prof.add(S.dp[i], S.blockRow[i], Cause::Stream,
                         S.memCycles[i], S.streamBytes[i]);
                prof.add(S.dp[i], S.blockRow[i], Cause::FcuCompute,
                         S.streamCycles[i] - S.memCycles[i]);
                running += S.streamCycles[i];
                par += S.streamCycles[i];
            } else {
                uint64_t bc = std::max(S.spmmMemCycles[i],
                                       uint64_t(S.streamedRows[i]) * k);
                prof.add(S.dp[i], S.blockRow[i], Cause::Stream,
                         S.spmmMemCycles[i],
                         uint64_t(S.streamedRows[i]) * S.omega *
                             sizeof(Value));
                prof.add(S.dp[i], S.blockRow[i], Cause::FcuCompute,
                         bc - S.spmmMemCycles[i]);
                running += bc;
                par += bc;
            }
        }
    }
    ALR_ASSERT(running == prefix[nparts],
               "partitioned walk total diverged from combine");
    if (S.finalOutRow >= 0) {
        // The reference SpMV attributes the final writeback to the
        // run's last data path; its SpMM hardcodes GEMV.
        DataPathType fdp = k == 0 ? S.lastDp : DataPathType::Gemv;
        for (size_t j = 0; j < reps; ++j)
            if (finalMiss[j])
                prof.add(fdp, S.finalOutRow, Cause::CacheMiss, 0,
                         lineBytes);
    }
    if (spansOn && segStart >= 0)
        timeline::span(toString(segDp), "datapath",
                       timeline::kTidDataPath, ctx.tlBase + segStart,
                       running - uint64_t(segStart));

    t.cycles = running;
    t.parCycles = par;
    return t;
}

SymgsTiming
symgsWalk(const Ctx &ctx, const ExecSchedule &S,
          size_t initial_link_depth, profile::RunScope &prof)
{
    SymgsTiming st;
    if (S.pathCount == 0)
        return st;

    const AccelParams &params = ctx.params;
    CacheModel &cache = ctx.rcu.cache();
    const Lat lat(params, ctx.memory);
    const uint64_t lineBytes = params.cacheLineBytes;
    const uint64_t pipeDepth = uint64_t(params.pipelineDepth());
    const uint64_t cfgExposed = uint64_t(
        std::max(0, params.configCycles - params.drainCycles()));
    const size_t nparts = S.partBegin.size() - 1;
    const size_t lineCount = cache.lineCount();

    uint64_t hidden0 = 0;
    uint64_t cfg0 = ctx.rcu.reconfigure(S.dp[0], &hidden0);

    // Phase B: partition replay of the stream-timeline charges and the
    // cache trace.  Diagonal-read latencies live on the dependence
    // timeline, so they are resolved but never added to the stream
    // cycles here.
    std::vector<Part> parts(nparts);
    runParts(ctx.pool, nparts, [&](size_t pi) {
        Part &p = parts[pi];
        const size_t pb = S.partBegin[pi], pe = S.partBegin[pi + 1];
        p.touched.assign(lineCount, 0);
        p.img.resize(lineCount);
        p.outMiss.assign(pe - pb, 0);
        p.xMiss.assign(pe - pb, 0);
        p.xLat.assign(pe - pb, 0);
        p.dMiss.assign(pe - pb, 0);
        p.dLat.assign(pe - pb, 0);
        Shadow shadow(cache, p, lat.streamLine, lat.critHit,
                      lat.critMiss);
        for (size_t i = pb; i < pe; ++i) {
            const uint32_t lo = uint32_t(i - pb);
            p.cycles += S.cfgCycles[i];
            if (S.dp[i] == DataPathType::Gemv) {
                p.cycles += S.fillCycles[i];
                p.cycles += shadow.access(S.operandVec[i],
                                          S.blockCol[i], kRead, lo);
                p.cycles += S.streamCycles[i];
            } else {
                p.cycles += S.streamCycles[i];
                shadow.access(CacheVec::Diag, S.blockRow[i], kCritRead,
                              lo);
                shadow.access(CacheVec::Xt, S.blockRow[i], kWrite, lo);
            }
        }
    });

    // Phase C: ordered combine.
    std::vector<CacheModel::LineImage> cur = snapshotLines(cache);
    std::vector<uint64_t> prefix;
    double reads = 0.0, writes = 0.0, hits = 0.0, misses = 0.0;
    combineParts(parts, cur, lat, prefix, cfg0, reads, writes, hits,
                 misses);
    writeBackLines(cache, cur);
    cache.noteBatch(reads, writes, hits, misses);
    ctx.memory.noteRandomAccesses(misses);

    // In-order scan: stream prefix + dependence-chain recurrence over
    // the resolved access results, in the reference model's exact
    // profile/timeline emission order.  The link-stack depth is
    // simulated (one push per GEMV path, drained by each chain), never
    // touching the real stack the functional pass already drove.
    const bool tlOn = timeline::enabled();
    uint64_t stream = 0;
    uint64_t dep = 0;
    uint64_t seq = 0;
    size_t depth = initial_link_depth;
    int64_t segStart = -1;
    DataPathType segDp{};
    if (tlOn && cfg0)
        timeline::span("reconfig", "rcu", timeline::kTidRcu, ctx.tlBase,
                       cfg0);
    prof.add(S.dp[0], S.blockRow[0], Cause::ReconfigHidden, hidden0);
    prof.add(S.dp[0], S.blockRow[0], Cause::ReconfigExposed,
             cfg0 - hidden0);
    stream += cfg0;
    for (size_t pi = 0; pi < nparts; ++pi) {
        ALR_ASSERT(stream == prefix[pi],
                   "partition prefix conservation violated");
        const Part &p = parts[pi];
        const size_t pb = S.partBegin[pi], pe = S.partBegin[pi + 1];
        for (size_t i = pb; i < pe; ++i) {
            const size_t lo = i - pb;
            if (tlOn && segStart >= 0 && S.dp[i] != segDp) {
                timeline::span(toString(segDp), "datapath",
                               timeline::kTidDataPath,
                               ctx.tlBase + segStart,
                               stream - uint64_t(segStart));
                segStart = -1;
            }
            if (tlOn && S.cfgCycles[i])
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               ctx.tlBase + stream, S.cfgCycles[i]);
            if (S.cfgCycles[i]) {
                prof.add(S.dp[i], S.blockRow[i], Cause::ReconfigHidden,
                         S.cfgCycles[i] - cfgExposed);
                prof.add(S.dp[i], S.blockRow[i], Cause::ReconfigExposed,
                         cfgExposed);
            }
            stream += S.cfgCycles[i];
            if (S.dp[i] == DataPathType::Gemv) {
                if (tlOn && S.fillCycles[i])
                    timeline::span("fill", "fcu", timeline::kTidFcu,
                                   ctx.tlBase + stream,
                                   S.fillCycles[i]);
                prof.add(S.dp[i], S.blockRow[i], Cause::FcuCompute,
                         S.fillCycles[i]);
                stream += S.fillCycles[i];
                if (tlOn && segStart < 0) {
                    segStart = int64_t(stream);
                    segDp = S.dp[i];
                }
                prof.add(S.dp[i], S.blockRow[i], Cause::CacheMiss,
                         p.xLat[lo], p.xMiss[lo] ? lineBytes : 0);
                stream += p.xLat[lo];
                prof.add(S.dp[i], S.blockRow[i], Cause::Stream,
                         S.memCycles[i], S.streamBytes[i]);
                prof.add(S.dp[i], S.blockRow[i], Cause::FcuCompute,
                         S.streamCycles[i] - S.memCycles[i]);
                stream += S.streamCycles[i];
                ++depth;
                if (tlOn)
                    timeline::counter("link_depth",
                                      ctx.tlBase + stream,
                                      double(depth));
            } else {
                if (tlOn && segStart < 0) {
                    segStart = int64_t(stream);
                    segDp = S.dp[i];
                }
                Index br = S.blockRow[i];
                prof.add(S.dp[i], br, Cause::Stream, S.memCycles[i],
                         S.streamBytes[i]);
                prof.add(S.dp[i], br, Cause::FcuCompute,
                         S.streamCycles[i] - S.memCycles[i]);
                stream += S.streamCycles[i];
                if (p.dMiss[lo])
                    prof.add(S.dp[i], br, Cause::CacheMiss, 0,
                             lineBytes);
                uint64_t dep_in = dep;
                uint64_t start =
                    std::max(stream + pipeDepth, dep) + p.dLat[lo];
                if (p.outMiss[lo])
                    prof.add(S.dp[i], br, Cause::CacheMiss, 0,
                             lineBytes);
                dep = start + S.chainCycles[i];
                prof.chain(br, stream, dep_in, start, S.chainCycles[i],
                           dep);
                seq += S.chainCycles[i];
                depth = 0;
                if (tlOn) {
                    timeline::span("d-symgs chain", "datapath",
                                   timeline::kTidChain,
                                   ctx.tlBase + start,
                                   S.chainCycles[i]);
                    timeline::counter("link_depth", ctx.tlBase + start,
                                      0.0);
                }
            }
        }
    }
    ALR_ASSERT(stream == prefix[nparts],
               "partitioned walk total diverged from combine");
    if (tlOn && segStart >= 0)
        timeline::span(toString(segDp), "datapath",
                       timeline::kTidDataPath, ctx.tlBase + segStart,
                       stream - uint64_t(segStart));

    st.streamT = stream;
    st.depT = dep;
    st.seqCycles = seq;
    return st;
}

} // namespace pwalk
} // namespace alr

#include "alrescha/sim/pwalk.hh"

#include <algorithm>

#include "alrescha/sim/rcu.hh"
#include "common/timeline.hh"

namespace alr {
namespace pwalk {

using profile::Cause;

namespace {

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

} // namespace

GemvTiming
gemvWalk(const Ctx &ctx, const ExecSchedule &S, size_t k,
         profile::RunScope &prof)
{
    GemvTiming t;
    if (S.pathCount == 0)
        return t;

    const AccelParams &params = ctx.params;
    const Lat lat(params, ctx.memory);
    const uint64_t lineBytes = params.cacheLineBytes;
    const uint64_t cfgExposed = uint64_t(
        std::max(0, params.configCycles - params.drainCycles()));
    const size_t reps = k == 0 ? 1 : k;

    // Run-start reconfiguration: the one transition whose predecessor
    // is runtime state, replayed through the real RCU.
    uint64_t hidden0 = 0;
    uint64_t cfg0 = ctx.rcu.reconfigure(S.dp[0], &hidden0);

    CacheModel::Shadow cache(ctx.rcu.cache());
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
    for (size_t i = 0; i < S.pathCount; ++i) {
        if (spansOn && segStart >= 0 && S.dp[i] != segDp) {
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, ctx.tlBase + segStart,
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
        // Out writeback of the previous block row, then the operand
        // chunk: a streaming read whose miss only costs the line fill's
        // share of the pipe.
        if (S.writeOutRow[i] >= 0) {
            for (size_t j = 0; j < reps; ++j)
                if (!cache.write(CacheVec::Out, Index(S.writeOutRow[i])))
                    prof.add(S.dp[i], S.writeOutRow[i], Cause::CacheMiss,
                             0, lineBytes);
        }
        for (size_t j = 0; j < reps; ++j) {
            bool hit = cache.read(S.operandVec[i], S.blockCol[i]);
            uint64_t l = hit ? 0 : lat.streamLine;
            prof.add(S.dp[i], S.blockRow[i], Cause::CacheMiss, l,
                     hit ? 0 : lineBytes);
            running += l;
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
    if (S.finalOutRow >= 0) {
        // The reference SpMV attributes the final writeback to the
        // run's last data path; its SpMM hardcodes GEMV.
        DataPathType fdp = k == 0 ? S.lastDp : DataPathType::Gemv;
        for (size_t j = 0; j < reps; ++j)
            if (!cache.write(CacheVec::Out, Index(S.finalOutRow)))
                prof.add(fdp, S.finalOutRow, Cause::CacheMiss, 0,
                         lineBytes);
    }
    cache.commit();
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
    const Lat lat(params, ctx.memory);
    const uint64_t lineBytes = params.cacheLineBytes;
    const uint64_t pipeDepth = uint64_t(params.pipelineDepth());
    const uint64_t cfgExposed = uint64_t(
        std::max(0, params.configCycles - params.drainCycles()));

    uint64_t hidden0 = 0;
    uint64_t cfg0 = ctx.rcu.reconfigure(S.dp[0], &hidden0);

    // Stream prefix plus the dependence-chain recurrence.  Diagonal-read
    // latencies live on the dependence timeline, never on the stream.
    // The link-stack depth is simulated (one push per GEMV path,
    // drained by each chain), never touching the real stack the
    // functional pass already drove.
    CacheModel::Shadow cache(ctx.rcu.cache());
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
    for (size_t i = 0; i < S.pathCount; ++i) {
        if (tlOn && segStart >= 0 && S.dp[i] != segDp) {
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, ctx.tlBase + segStart,
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
                               ctx.tlBase + stream, S.fillCycles[i]);
            prof.add(S.dp[i], S.blockRow[i], Cause::FcuCompute,
                     S.fillCycles[i]);
            stream += S.fillCycles[i];
            if (tlOn && segStart < 0) {
                segStart = int64_t(stream);
                segDp = S.dp[i];
            }
            bool hit = cache.read(S.operandVec[i], S.blockCol[i]);
            uint64_t l = hit ? 0 : lat.streamLine;
            prof.add(S.dp[i], S.blockRow[i], Cause::CacheMiss, l,
                     hit ? 0 : lineBytes);
            stream += l;
            prof.add(S.dp[i], S.blockRow[i], Cause::Stream,
                     S.memCycles[i], S.streamBytes[i]);
            prof.add(S.dp[i], S.blockRow[i], Cause::FcuCompute,
                     S.streamCycles[i] - S.memCycles[i]);
            stream += S.streamCycles[i];
            ++depth;
            if (tlOn)
                timeline::counter("link_depth", ctx.tlBase + stream,
                                  double(depth));
            continue;
        }
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
        // The chain waits on the diagonal chunk (a critical-path read),
        // then writes its x^t chunk back.
        bool diagHit = cache.read(CacheVec::Diag, br);
        if (!diagHit)
            prof.add(S.dp[i], br, Cause::CacheMiss, 0, lineBytes);
        uint64_t dep_in = dep;
        uint64_t start = std::max(stream + pipeDepth, dep) +
                         (diagHit ? lat.critHit : lat.critMiss);
        if (!cache.write(CacheVec::Xt, br))
            prof.add(S.dp[i], br, Cause::CacheMiss, 0, lineBytes);
        dep = start + S.chainCycles[i];
        prof.chain(br, stream, dep_in, start, S.chainCycles[i], dep);
        seq += S.chainCycles[i];
        depth = 0;
        if (tlOn) {
            timeline::span("d-symgs chain", "datapath",
                           timeline::kTidChain, ctx.tlBase + start,
                           S.chainCycles[i]);
            timeline::counter("link_depth", ctx.tlBase + start, 0.0);
        }
    }
    cache.commit();
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

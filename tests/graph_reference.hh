/**
 * @file
 * Reference model of the graph rounds (D-PR, D-BFS, D-SSSP, and label
 * propagation): the engine's original per-element loops, kept verbatim
 * as the bit-identity oracle for the occupancy-plan walk in
 * Engine::runPrRound / runRelaxRound / runLabelRound.
 *
 * Every round decodes every padded slot through
 * LocallyDenseMatrix::blockValue and drives its own MemoryModel, Fcu
 * and Rcu access by access.  The stat group mirrors the Engine's
 * registration order, so stat dumps compare as text; profile charges go
 * to the same global recorder.  Timeline events are not emitted.
 */

#ifndef ALR_TESTS_GRAPH_REFERENCE_HH
#define ALR_TESTS_GRAPH_REFERENCE_HH

#include <algorithm>
#include <limits>
#include <vector>

#include "alrescha/config_table.hh"
#include "alrescha/format.hh"
#include "alrescha/params.hh"
#include "alrescha/sim/engine.hh"
#include "alrescha/sim/fcu.hh"
#include "alrescha/sim/memory.hh"
#include "alrescha/sim/profile.hh"
#include "alrescha/sim/rcu.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace alr::testref {

using profile::Cause;

class GraphReference
{
  public:
    explicit GraphReference(const AccelParams &params)
        : _params(params), _memory(params), _fcu(params),
          _rcu(params, &_memory), _stats("alrescha")
    {
        // Same names, order, and sub-groups as Engine's constructor.
        _stats.registerScalar("cycles", &_cycles, "total execution cycles");
        _stats.registerScalar("cycles_seq", &_seqCycles,
                              "cycles in serialized D-SymGS paths");
        _stats.registerScalar("cycles_par", &_parCycles,
                              "cycles in pipelined data paths");
        _stats.registerScalar("flops_seq", &_seqFlops,
                              "useful FLOPs in serialized paths");
        _stats.registerScalar("flops_par", &_parFlops,
                              "useful FLOPs in pipelined paths");
        _stats.registerScalar("useful_bytes", &_usefulBytes,
                              "streamed bytes carrying non-zero payload");
        _stats.registerScalar("runs", &_runs, "engine run invocations");
        _stats.registerScalar("schedule_evictions", &_scheduleEvictions,
                              "schedules evicted from the MRU cache");
        _stats.registerDistribution("run_cycles", &_runCycles,
                                    "cycles per engine run");
        _memory.registerStats(_stats);
        _fcu.registerStats(_stats);
        _rcu.registerStats(_stats);
    }

    void program(const LocallyDenseMatrix *ld, const ConfigTable *table)
    {
        _ld = ld;
        _table = table;
    }

    DenseVector runRelaxRound(const DenseVector &dist,
                              RunTiming *timing = nullptr)
    {
        return relaxImpl(dist, false, nullptr, timing);
    }
    DenseVector runRelaxRound(const DenseVector &dist,
                              const std::vector<uint8_t> &active_chunks,
                              RunTiming *timing = nullptr)
    {
        return relaxImpl(dist, false, &active_chunks, timing);
    }
    DenseVector runLabelRound(const DenseVector &labels,
                              RunTiming *timing = nullptr)
    {
        return relaxImpl(labels, true, nullptr, timing);
    }
    DenseVector runLabelRound(const DenseVector &labels,
                              const std::vector<uint8_t> &active_chunks,
                              RunTiming *timing = nullptr)
    {
        return relaxImpl(labels, true, &active_chunks, timing);
    }
    DenseVector runPrRound(const DenseVector &rank,
                           const std::vector<Index> &outdeg,
                           RunTiming *timing = nullptr);

    uint64_t totalCycles() const { return uint64_t(_cycles.value()); }
    MemoryModel &memory() { return _memory; }
    stats::StatGroup &statGroup() { return _stats; }

  private:
    DenseVector relaxImpl(const DenseVector &dist, bool zero_addend,
                          const std::vector<uint8_t> *active_chunks,
                          RunTiming *timing);

    uint64_t streamBlockCycles(const LdBlockInfo &blk) const
    {
        uint64_t compute = _params.omega;
        uint64_t mem =
            _memory.streamCycles(uint64_t(blk.size) * sizeof(Value));
        return std::max(compute, mem);
    }

    uint64_t streamRowsCycles(Index rows_streamed) const
    {
        uint64_t bytes =
            uint64_t(rows_streamed) * _params.omega * sizeof(Value);
        return std::max<uint64_t>(rows_streamed,
                                  _memory.streamCycles(bytes));
    }

    void addTiming(RunTiming *timing, const RunTiming &delta)
    {
        _cycles += double(delta.cycles);
        _seqCycles += double(delta.seqCycles);
        _parCycles += double(delta.parCycles);
        ++_runs;
        _runCycles.sample(double(delta.cycles));
        if (timing)
            *timing = delta;
    }

    AccelParams _params;
    MemoryModel _memory;
    Fcu _fcu;
    Rcu _rcu;
    const LocallyDenseMatrix *_ld = nullptr;
    const ConfigTable *_table = nullptr;

    stats::Scalar _cycles;
    stats::Scalar _seqCycles;
    stats::Scalar _parCycles;
    stats::Scalar _seqFlops;
    stats::Scalar _parFlops;
    stats::Scalar _usefulBytes;
    stats::Scalar _runs;
    stats::Scalar _scheduleEvictions;
    stats::Distribution _runCycles;
    stats::StatGroup _stats;
};

inline DenseVector
GraphReference::relaxImpl(const DenseVector &dist, bool zero_addend,
                  const std::vector<uint8_t> *active_chunks,
                  RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::BFS ||
                   _table->kernel() == KernelType::SSSP,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(dist.size() == _ld->rows(), "operand length mismatch");

    const Index omega = _params.omega;
    const bool hops = _table->kernel() == KernelType::BFS;
    constexpr Value inf = std::numeric_limits<Value>::infinity();

    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;
    DataPathType drainDp = DataPathType::Gemv;

    DenseVector cand(_ld->rows(), inf);
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> srcDist(omega), addend(omega);
    std::vector<uint8_t> valid(omega);
    if (active_chunks) {
        ALR_ASSERT(active_chunks->size() >=
                       (_ld->cols() + omega - 1) / omega,
                   "frontier mask too short");
    }
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        // Frontier skipping: an inactive source chunk cannot improve
        // any candidate, so the block never leaves memory.
        if (active_chunks && !(*active_chunks)[blk.blockCol])
            continue;
        drainDp = e.dp;
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            t.cycles += cfg;
            filled = false;
        }
        if (!filled) {
            uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Min));
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (int64_t(blk.blockRow) != curRow) {
            if (curRow >= 0) {
                // Assign phase: compare with the old distance chunk and
                // write back (Table 1, phase 3).
                bool rMiss = false, wMiss = false;
                uint64_t oRead = _rcu.cache().read(
                    CacheVec::Out, Index(curRow), false, &rMiss);
                prof.add(e.dp, curRow, Cause::CacheMiss, oRead,
                         rMiss ? lineBytes : 0);
                t.cycles += oRead;
                t.cycles += _rcu.cache().write(CacheVec::Out,
                                               Index(curRow), &wMiss);
                if (wMiss)
                    prof.add(e.dp, curRow, Cause::CacheMiss, 0,
                             lineBytes);
            }
            curRow = blk.blockRow;
        }

        bool xMiss = false;
        uint64_t xRead =
            _rcu.cache().read(CacheVec::Xt, blk.blockCol, false, &xMiss);
        prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                 xMiss ? lineBytes : 0);
        t.cycles += xRead;

        Index c0 = blk.blockCol * omega;
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                Index src = c0 + lc;
                Value w = _ld->blockValue(blk, lr, lc);
                bool present = w != 0.0 && src < _ld->cols();
                valid[lc] = present;
                srcDist[lc] = present ? dist[src] : inf;
                addend[lc] = zero_addend ? 0.0 : (hops ? 1.0 : w);
                if (present)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            Value m = _fcu.vectorReduce(srcDist, addend, VecOp::Add,
                                        ReduceOp::Min, valid, &fcuOps);
            cand[r] = std::min(cand[r], m);
            parFlops += 2.0 * useful;
            usefulBytes += double(useful) * sizeof(Value);
        }
        uint64_t bc, streamedBytes;
        if (_params.skipEmptyBlockRows) {
            streamedBytes = uint64_t(occupied) * omega * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamRowsCycles(occupied);
        } else {
            streamedBytes = uint64_t(blk.size) * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamBlockCycles(blk);
        }
        if (prof.on()) {
            uint64_t memC = _memory.streamCycles(streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::Stream, memC,
                     streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, bc - memC);
        }
        t.cycles += bc;
        t.parCycles += bc;
    }
    if (curRow >= 0) {
        bool rMiss = false, wMiss = false;
        uint64_t oRead = _rcu.cache().read(CacheVec::Out, Index(curRow),
                                           false, &rMiss);
        prof.add(drainDp, curRow, Cause::CacheMiss, oRead,
                 rMiss ? lineBytes : 0);
        t.cycles += oRead;
        t.cycles +=
            _rcu.cache().write(CacheVec::Out, Index(curRow), &wMiss);
        if (wMiss)
            prof.add(drainDp, curRow, Cause::CacheMiss, 0, lineBytes);
    }
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(drainDp, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    if (parFlops != 0.0)
        _parFlops += parFlops;
    if (usefulBytes != 0.0)
        _usefulBytes += usefulBytes;
    addTiming(timing, t);

    DenseVector next(dist.size());
    for (size_t v = 0; v < dist.size(); ++v)
        next[v] = std::min(dist[v], cand[v]);
    return next;
}

inline DenseVector
GraphReference::runPrRound(const DenseVector &rank,
                   const std::vector<Index> &outdeg, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::PageRank,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(rank.size() == _ld->rows() &&
                   outdeg.size() == _ld->rows(),
               "operand length mismatch");

    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;
    DataPathType drainDp = DataPathType::Gemv;

    const Index omega = _params.omega;
    DenseVector sums(_ld->rows(), 0.0);
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0, peOps = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> contrib(omega), pattern(omega);
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        drainDp = e.dp;
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            t.cycles += cfg;
            filled = false;
        }
        if (!filled) {
            uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (int64_t(blk.blockRow) != curRow) {
            if (curRow >= 0) {
                bool wMiss = false;
                t.cycles += _rcu.cache().write(CacheVec::Out,
                                               Index(curRow), &wMiss);
                if (wMiss)
                    prof.add(e.dp, curRow, Cause::CacheMiss, 0,
                             lineBytes);
            }
            curRow = blk.blockRow;
        }

        // rank chunk (port1) and out-degree chunk (port2, Table 1).
        for (CacheVec vec : {CacheVec::Xt, CacheVec::Aux}) {
            bool rdMiss = false;
            uint64_t rd =
                _rcu.cache().read(vec, blk.blockCol, false, &rdMiss);
            prof.add(e.dp, blk.blockRow, Cause::CacheMiss, rd,
                     rdMiss ? lineBytes : 0);
            t.cycles += rd;
        }

        Index c0 = blk.blockCol * omega;
        for (Index lc = 0; lc < omega; ++lc) {
            Index src = c0 + lc;
            if (src < _ld->rows() && outdeg[src] > 0) {
                contrib[lc] = rank[src] / Value(outdeg[src]);
                peOps += 1.0; // the phase-1 division (overlapped)
            } else {
                contrib[lc] = 0.0;
            }
        }
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                pattern[lc] =
                    _ld->blockValue(blk, lr, lc) != 0.0 ? 1.0 : 0.0;
                if (pattern[lc] != 0.0)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            sums[r] += _fcu.vectorReduce(pattern, contrib, VecOp::Mul,
                                         ReduceOp::Sum, {}, &fcuOps);
            parFlops += 2.0 * useful;
            usefulBytes += double(useful) * sizeof(Value);
        }
        uint64_t bc, streamedBytes;
        if (_params.skipEmptyBlockRows) {
            streamedBytes = uint64_t(occupied) * omega * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamRowsCycles(occupied);
        } else {
            streamedBytes = uint64_t(blk.size) * sizeof(Value);
            _memory.recordStream(streamedBytes);
            bc = streamBlockCycles(blk);
        }
        if (prof.on()) {
            uint64_t memC = _memory.streamCycles(streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::Stream, memC,
                     streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, bc - memC);
        }
        t.cycles += bc;
        t.parCycles += bc;
    }
    if (curRow >= 0) {
        bool wMiss = false;
        t.cycles +=
            _rcu.cache().write(CacheVec::Out, Index(curRow), &wMiss);
        if (wMiss)
            prof.add(drainDp, curRow, Cause::CacheMiss, 0, lineBytes);
    }
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(drainDp, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    _rcu.notePeOps(peOps);
    if (parFlops != 0.0)
        _parFlops += parFlops;
    if (usefulBytes != 0.0)
        _usefulBytes += usefulBytes;
    addTiming(timing, t);
    return sums;
}

} // namespace alr::testref

#endif // ALR_TESTS_GRAPH_REFERENCE_HH

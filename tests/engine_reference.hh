/**
 * @file
 * Reference model of the engine: the per-ConfigEntry interpreter the
 * compiled schedules and the graph occupancy-plan walk replaced, kept
 * as the bit-identity oracle for Engine::runSpmv / runSpmm /
 * runSymgsSweep and the graph rounds (D-PR, D-BFS, D-SSSP, and label
 * propagation).
 *
 * Every run walks the configuration table entry by entry, decodes every
 * padded slot through LocallyDenseMatrix::blockValue, and drives its own
 * MemoryModel, Fcu and Rcu access by access.  The stat group mirrors the
 * Engine's registration order, so stat dumps compare as text; profile
 * charges go to the same global recorder.  SpMV, SpMM and SymGS emit the
 * same modeled timeline events as the engine; the graph rounds emit
 * none.
 *
 * The free functions at the end drive the reference on an
 * Accelerator's encoded matrix and tables, the way the Accelerator
 * drives its own engine, for accelerator-level comparisons (symmetric
 * sweeps, PCG); GlobalPoolScope sizes the host pool a case
 * preprocesses on.
 */

#ifndef ALR_TESTS_ENGINE_REFERENCE_HH
#define ALR_TESTS_ENGINE_REFERENCE_HH

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
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
#include "common/thread_pool.hh"
#include "common/timeline.hh"
#include "kernels/pcg.hh"

namespace alr::testref {

using profile::Cause;

class ReferenceEngine
{
  public:
    explicit ReferenceEngine(const AccelParams &params)
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

    DenseVector runSpmv(const DenseVector &x, RunTiming *timing = nullptr);
    std::vector<DenseVector> runSpmm(const std::vector<DenseVector> &xs,
                                     RunTiming *timing = nullptr);
    void runSymgsSweep(const DenseVector &b, DenseVector &x,
                       RunTiming *timing = nullptr);

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
    Rcu &rcu() { return _rcu; }
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

    /** The engine's per-run timeline tail (Engine::emitTimelineTail). */
    void emitTimelineTail(uint64_t base, const RunTiming &t,
                          const char *run_name)
    {
        if (!timeline::enabled())
            return;
        if (run_name)
            timeline::span(run_name, "datapath", timeline::kTidDataPath,
                           base, t.cycles);
        if (t.parCycles > 0)
            timeline::span("stream", "memory", timeline::kTidMemory, base,
                           t.parCycles);
        uint64_t drain = uint64_t(_params.drainCycles());
        if (t.cycles >= drain && drain > 0)
            timeline::span("drain", "fcu", timeline::kTidFcu,
                           base + t.cycles - drain, drain);
        timeline::counter("cache_lines", base + t.cycles,
                          double(_rcu.cache().occupancy()));
        timeline::counter("link_depth", base + t.cycles,
                          double(_rcu.linkStack().depth()));
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
ReferenceEngine::runSpmv(const DenseVector &x, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("spmv", "run");
    const bool tlOn = timeline::enabled();
    const uint64_t tlBase = totalCycles();
    int64_t segStart = -1;
    DataPathType segDp{};
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    const Index omega = _params.omega;
    DenseVector y(_ld->rows(), 0.0);
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> rowVals(omega), xChunk(omega);
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        if (tlOn && segStart >= 0 && e.dp != segDp) {
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, tlBase + segStart,
                           t.cycles - uint64_t(segStart));
            segStart = -1;
        }
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            if (tlOn)
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               tlBase + t.cycles, cfg);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            t.cycles += cfg;
            filled = false;
        }
        if (!filled) {
            uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
            if (tlOn)
                timeline::span("fill", "fcu", timeline::kTidFcu,
                               tlBase + t.cycles, fill);
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (tlOn && segStart < 0) {
            segStart = int64_t(t.cycles);
            segDp = e.dp;
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

        bool xMiss = false;
        uint64_t xRead =
            _rcu.cache().read(CacheVec::Xt, blk.blockCol, false, &xMiss);
        prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                 xMiss ? lineBytes : 0);
        t.cycles += xRead;

        Index c0 = blk.blockCol * omega;
        for (Index lc = 0; lc < omega; ++lc) {
            Index c = c0 + lc;
            xChunk[lc] = c < _ld->cols() ? x[c] : 0.0;
        }
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                rowVals[lc] = _ld->blockValue(blk, lr, lc);
                if (rowVals[lc] != 0.0)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            y[r] += _fcu.vectorReduce(rowVals, xChunk, VecOp::Mul,
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
            prof.add(DataPathType::Gemv, curRow, Cause::CacheMiss, 0,
                     lineBytes);
    }
    if (tlOn && segStart >= 0)
        timeline::span(toString(segDp), "datapath", timeline::kTidDataPath,
                       tlBase + segStart, t.cycles - uint64_t(segStart));
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(DataPathType::Gemv, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    if (parFlops != 0.0)
        _parFlops += parFlops;
    if (usefulBytes != 0.0)
        _usefulBytes += usefulBytes;
    emitTimelineTail(tlBase, t, nullptr);
    addTiming(timing, t);
    return y;
}

inline std::vector<DenseVector>
ReferenceEngine::runSpmm(const std::vector<DenseVector> &xs,
                         RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(!xs.empty(), "spmm needs at least one right-hand side");
    for (const DenseVector &x : xs)
        ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("spmm", "run");
    const uint64_t tlBase = totalCycles();
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    const Index omega = _params.omega;
    const size_t k = xs.size();
    std::vector<DenseVector> ys(k, DenseVector(_ld->rows(), 0.0));
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    double parFlops = 0.0, usefulBytes = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> rowVals(omega);
    std::vector<DenseVector> chunks(k, DenseVector(omega, 0.0));
    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
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
                for (size_t j = 0; j < k; ++j) {
                    bool wMiss = false;
                    t.cycles += _rcu.cache().write(CacheVec::Out,
                                                   Index(curRow), &wMiss);
                    if (wMiss)
                        prof.add(e.dp, curRow, Cause::CacheMiss, 0,
                                 lineBytes);
                }
            }
            curRow = blk.blockRow;
        }

        // One chunk read per RHS (distinct cache lines).
        for (size_t j = 0; j < k; ++j) {
            bool xMiss = false;
            uint64_t xRead = _rcu.cache().read(CacheVec::Xt,
                                               blk.blockCol, false,
                                               &xMiss);
            prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                     xMiss ? lineBytes : 0);
            t.cycles += xRead;
        }

        Index c0 = blk.blockCol * omega;
        for (size_t j = 0; j < k; ++j) {
            for (Index lc = 0; lc < omega; ++lc) {
                Index c = c0 + lc;
                chunks[j][lc] = c < _ld->cols() ? xs[j][c] : 0.0;
            }
        }
        Index occupied = 0;
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= _ld->rows())
                break;
            Index useful = 0;
            for (Index lc = 0; lc < omega; ++lc) {
                rowVals[lc] = _ld->blockValue(blk, lr, lc);
                if (rowVals[lc] != 0.0)
                    ++useful;
            }
            if (useful == 0 && _params.skipEmptyBlockRows)
                continue;
            ++occupied;
            for (size_t j = 0; j < k; ++j) {
                ys[j][r] += _fcu.vectorReduce(rowVals, chunks[j],
                                              VecOp::Mul, ReduceOp::Sum,
                                              {}, &fcuOps);
                parFlops += 2.0 * useful;
            }
            // The payload is useful once; the reuse is the win.
            usefulBytes += double(useful) * sizeof(Value);
        }
        // The block streams once; its rows issue once per RHS.
        Index streamedRows =
            _params.skipEmptyBlockRows ? occupied : omega;
        uint64_t streamedBytes =
            uint64_t(streamedRows) * omega * sizeof(Value);
        _memory.recordStream(streamedBytes);
        uint64_t mem = _memory.streamCycles(streamedBytes);
        uint64_t issue = uint64_t(streamedRows) * k;
        uint64_t bc = std::max(mem, issue);
        prof.add(e.dp, blk.blockRow, Cause::Stream, mem, streamedBytes);
        prof.add(e.dp, blk.blockRow, Cause::FcuCompute, bc - mem);
        t.cycles += bc;
        t.parCycles += bc;
    }
    if (curRow >= 0) {
        for (size_t j = 0; j < k; ++j) {
            bool wMiss = false;
            t.cycles += _rcu.cache().write(CacheVec::Out, Index(curRow),
                                           &wMiss);
            if (wMiss)
                prof.add(DataPathType::Gemv, curRow, Cause::CacheMiss, 0,
                         lineBytes);
        }
    }
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(DataPathType::Gemv, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    _fcu.noteOps(fcuOps);
    if (parFlops != 0.0)
        _parFlops += parFlops;
    if (usefulBytes != 0.0)
        _usefulBytes += usefulBytes;
    emitTimelineTail(tlBase, t, "spmm");
    addTiming(timing, t);
    return ys;
}

inline void
ReferenceEngine::runSymgsSweep(const DenseVector &b, DenseVector &x,
                               RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SymGS,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(_table->reordered(),
               "only reordered SymGS tables are executable: the link "
               "stack needs every GEMV of a block row before its D-SymGS");
    ALR_ASSERT(b.size() == _ld->rows() && x.size() == _ld->rows(),
               "operand length mismatch");

    timeline::ScopedHostSpan hostSpan("symgs", "run");
    const bool tlOn = timeline::enabled();
    const uint64_t tlBase = totalCycles();
    int64_t segStart = -1;
    DataPathType segDp{};
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;

    const Index omega = _params.omega;
    const DenseVector &diag = _ld->diagonal();
    bool backward = _table->direction() == GsSweep::Backward;
    RunTiming t;
    bool filled = false;
    double parFlops = 0.0, seqFlops = 0.0, usefulBytes = 0.0;
    double peOps = 0.0;
    FcuOpCounts fcuOps;

    std::vector<Value> rowVals(omega), xChunk(omega), partials(omega);

    /**
     * Timing: two overlapping timelines.  The memory stream never
     * stalls ("uninterrupted streaming"): GEMV blocks of later block
     * rows stream and pipeline while a D-SymGS chain drains, their
     * partials queueing on the link stack.  The serialized chain
     * advances at the recurrence critical path -- the stale lanes of
     * each row's dot product are precomputed in the pipelined tree, so
     * one step is multiply (ALU) + subtract + divide (PEs) before
     * x_j^t rotates into the next row's operands (Fig 10).  The sweep
     * finishes when the slower timeline does.
     */
    uint64_t stream_t = 0; // streaming/pipelined front
    uint64_t dep_t = 0;    // completion of the dependence chain
    int stepLat =
        _params.aluLatency + 2 * _params.peLatency;

    for (const ConfigEntry &e : _table->entries()) {
        const LdBlockInfo &blk = _ld->blocks()[e.blockId];
        if (tlOn && segStart >= 0 && e.dp != segDp) {
            timeline::span(toString(segDp), "datapath",
                           timeline::kTidDataPath, tlBase + segStart,
                           stream_t - uint64_t(segStart));
            segStart = -1;
        }
        uint64_t hidden = 0;
        uint64_t cfg = _rcu.reconfigure(e.dp, &hidden);
        if (cfg) {
            if (tlOn)
                timeline::span("reconfig", "rcu", timeline::kTidRcu,
                               tlBase + stream_t, cfg);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigHidden, hidden);
            prof.add(e.dp, blk.blockRow, Cause::ReconfigExposed,
                     cfg - hidden);
            stream_t += cfg;
            filled = false;
        }

        if (e.dp == DataPathType::Gemv) {
            if (!filled) {
                uint64_t fill = uint64_t(_fcu.fillLatency(ReduceOp::Sum));
                if (tlOn)
                    timeline::span("fill", "fcu", timeline::kTidFcu,
                                   tlBase + stream_t, fill);
                prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
                stream_t += fill;
                filled = true;
            }
            if (tlOn && segStart < 0) {
                segStart = int64_t(stream_t);
                segDp = e.dp;
            }
            CacheVec vec = e.op == OperandPort::Port1 ? CacheVec::Xt
                                                      : CacheVec::Xprev;
            bool xMiss = false;
            uint64_t xRead =
                _rcu.cache().read(vec, blk.blockCol, false, &xMiss);
            prof.add(e.dp, blk.blockRow, Cause::CacheMiss, xRead,
                     xMiss ? lineBytes : 0);
            stream_t += xRead;

            Index c0 = blk.blockCol * omega;
            for (Index lc = 0; lc < omega; ++lc) {
                Index c = c0 + lc;
                xChunk[lc] = c < _ld->cols() ? x[c] : 0.0;
            }
            Index occupied = 0;
            for (Index lr = 0; lr < omega; ++lr) {
                Index r = blk.blockRow * omega + lr;
                if (r >= _ld->rows()) {
                    partials[lr] = 0.0;
                    continue;
                }
                Index useful = 0;
                for (Index lc = 0; lc < omega; ++lc) {
                    rowVals[lc] = _ld->blockValue(blk, lr, lc);
                    if (rowVals[lc] != 0.0)
                        ++useful;
                }
                if (useful == 0 && _params.skipEmptyBlockRows) {
                    partials[lr] = 0.0;
                    continue;
                }
                ++occupied;
                partials[lr] = _fcu.vectorReduce(rowVals, xChunk,
                                                 VecOp::Mul, ReduceOp::Sum,
                                                 {}, &fcuOps);
                parFlops += 2.0 * useful;
                usefulBytes += double(useful) * sizeof(Value);
            }
            uint64_t bc, streamedBytes;
            if (_params.skipEmptyBlockRows) {
                streamedBytes = uint64_t(occupied) * omega *
                                sizeof(Value);
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
                prof.add(e.dp, blk.blockRow, Cause::FcuCompute,
                         bc - memC);
            }
            stream_t += bc;
            _rcu.linkStack().push(partials);
            if (tlOn)
                timeline::counter("link_depth", tlBase + stream_t,
                                  double(_rcu.linkStack().depth()));
        } else {
            ALR_ASSERT(e.dp == DataPathType::DSymgs,
                       "unexpected data path in SymGS table");
            if (tlOn && segStart < 0) {
                segStart = int64_t(stream_t);
                segDp = e.dp;
            }
            // The diagonal block runs serialized: each row's result
            // rotates into the next row's operands (Fig 10).
            Index br = blk.blockRow;
            Index r0 = br * omega;
            uint64_t blkBytes = uint64_t(blk.size) * sizeof(Value);
            _memory.recordStream(blkBytes);
            uint64_t bc = streamBlockCycles(blk);
            stream_t += bc;
            Index validRows = std::min<Index>(omega, _ld->rows() - r0);
            // b arrives through its FIFO, streamed once per sweep.
            _memory.recordStream(uint64_t(validRows) * sizeof(Value));
            usefulBytes += double(validRows) * sizeof(Value);
            if (prof.on()) {
                uint64_t memC = _memory.streamCycles(blkBytes);
                prof.add(e.dp, br, Cause::Stream, memC,
                         blkBytes + uint64_t(validRows) * sizeof(Value));
                prof.add(e.dp, br, Cause::FcuCompute, bc - memC);
            }

            // The chain starts once this block row's partials are
            // through the tree and the previous chain link finished.
            // The diagonal read is on the dependence timeline, so its
            // latency lands in DSymgsWait; only its miss bytes are
            // attributed here.
            bool dMiss = false;
            uint64_t diag_read = _rcu.cache().read(CacheVec::Diag, br,
                                                   true, &dMiss);
            if (dMiss)
                prof.add(e.dp, br, Cause::CacheMiss, 0, lineBytes);
            uint64_t dep_in = dep_t;
            uint64_t start =
                std::max(stream_t + uint64_t(_params.pipelineDepth()),
                         dep_t) +
                diag_read;
            uint64_t chain = 0;

            DenseVector acc = _rcu.linkStack().popAccumulate(omega);
            for (Index step = 0; step < omega; ++step) {
                Index lr = backward ? omega - 1 - step : step;
                Index r = r0 + lr;
                if (r >= _ld->rows())
                    continue;
                Index useful = 0;
                for (Index lc = 0; lc < omega; ++lc) {
                    if (lc == lr) {
                        rowVals[lc] = 0.0;
                        xChunk[lc] = 0.0;
                        continue;
                    }
                    Index c = r0 + lc;
                    rowVals[lc] = _ld->blockValue(blk, lr, lc);
                    xChunk[lc] = c < _ld->rows() ? x[c] : 0.0;
                    if (rowVals[lc] != 0.0)
                        ++useful;
                }
                Value sum = acc[lr] +
                            _fcu.vectorReduce(rowVals, xChunk, VecOp::Mul,
                                              ReduceOp::Sum, {}, &fcuOps);
                peOps += 2.0; // subtract + divide
                x[r] = (b[r] - sum) / diag[r];
                chain += uint64_t(stepLat);
                seqFlops += 2.0 * useful + 2.0;
                usefulBytes += double(useful + 2) * sizeof(Value);
            }
            bool xwMiss = false;
            uint64_t xtWrite = _rcu.cache().write(CacheVec::Xt, br,
                                                  &xwMiss);
            if (xwMiss)
                prof.add(e.dp, br, Cause::CacheMiss, 0, lineBytes);
            dep_t = start + chain + xtWrite;
            prof.chain(br, stream_t, dep_in, start, chain, dep_t);
            t.seqCycles += chain;
            filled = false; // tree was used in single-shot mode
            if (tlOn) {
                timeline::span("d-symgs chain", "datapath",
                               timeline::kTidChain, tlBase + start, chain);
                timeline::counter("link_depth", tlBase + start, 0.0);
            }
        }
    }
    if (tlOn && segStart >= 0)
        timeline::span(toString(segDp), "datapath", timeline::kTidDataPath,
                       tlBase + segStart, stream_t - uint64_t(segStart));
    t.parCycles = stream_t;
    t.cycles = std::max(stream_t, dep_t) + uint64_t(_params.drainCycles());
    prof.add(DataPathType::DSymgs, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    prof.commitSymgs(stream_t, dep_t,
                     uint64_t(_params.pipelineDepth()));
    _fcu.noteOps(fcuOps);
    _rcu.notePeOps(peOps);
    if (parFlops != 0.0)
        _parFlops += parFlops;
    if (seqFlops != 0.0)
        _seqFlops += seqFlops;
    if (usefulBytes != 0.0)
        _usefulBytes += usefulBytes;
    emitTimelineTail(tlBase, t, nullptr);
    addTiming(timing, t);
}

inline DenseVector
ReferenceEngine::relaxImpl(const DenseVector &dist, bool zero_addend,
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
ReferenceEngine::runPrRound(const DenseVector &rank,
                            const std::vector<Index> &outdeg,
                            RunTiming *timing)
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

/** The full serialized stat listing of an Engine or ReferenceEngine. */
template <class E>
std::string
statDump(E &e)
{
    std::ostringstream os;
    e.statGroup().dump(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Accelerator-level drivers: the reference runs on @p acc's encoded
// matrix and tables exactly as Accelerator programs its own engine.

/** Accelerator::spmv on the reference. */
inline DenseVector
spmv(ReferenceEngine &ref, const Accelerator &acc, const DenseVector &x)
{
    ref.program(&acc.matrix(), &acc.table(KernelType::SpMV));
    return ref.runSpmv(x);
}

/** Accelerator::symgsSweep on the reference. */
inline void
symgsSweep(ReferenceEngine &ref, const Accelerator &acc,
           const DenseVector &b, DenseVector &x, GsSweep sweep)
{
    for (GsSweep dir : {GsSweep::Forward, GsSweep::Backward}) {
        if (sweep != dir && sweep != GsSweep::Symmetric)
            continue;
        ref.program(&acc.matrix(), &acc.table(KernelType::SymGS, dir));
        ref.runSymgsSweep(b, x);
    }
}

/** Accelerator::pcg on the reference: the same pcgSolveWith driver,
 *  with the reference's SpMV and symmetric-sweep preconditioner. */
inline PcgResult
pcg(ReferenceEngine &ref, const Accelerator &acc, const DenseVector &b,
    const PcgOptions &opts = {})
{
    PcgKernels kernels;
    kernels.spmv = [&](const DenseVector &x) { return spmv(ref, acc, x); };
    if (opts.precondition) {
        kernels.precond = [&](const DenseVector &r) {
            DenseVector z(r.size(), 0.0);
            symgsSweep(ref, acc, r, z, GsSweep::Symmetric);
            return z;
        };
    }
    return pcgSolveWith(kernels, b, acc.matrix().rows(), opts);
}

/**
 * Sizes the process-wide host pool (the one that encodes and converts
 * every matrix) for a scope, then restores the ALR_THREADS default.
 * 0 keeps the default.  Engine runs execute on their caller at any
 * size, so equivalence suites sweep it to show that preprocessing on
 * any pool feeds the same bit-identical replay.
 */
class GlobalPoolScope
{
  public:
    explicit GlobalPoolScope(int threads)
    {
        ThreadPool::setGlobalThreadCount(threads);
    }
    ~GlobalPoolScope() { ThreadPool::setGlobalThreadCount(0); }
    GlobalPoolScope(const GlobalPoolScope &) = delete;
    GlobalPoolScope &operator=(const GlobalPoolScope &) = delete;
};

} // namespace alr::testref

#endif // ALR_TESTS_ENGINE_REFERENCE_HH

#include "alrescha/sim/engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include <fstream>
#include <sstream>

#include "alrescha/sim/profile.hh"
#include "alrescha/sim/pwalk.hh"
#include "alrescha/sim/reduce.hh"
#include "alrescha/sim/replay.hh"
#include "alrescha/sim/schedule_io.hh"
#include "common/binary_io.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/timeline.hh"

namespace alr {

using profile::Cause;

/** Header of the persisted schedule-cache format ("Alrescha schedule
 *  cache").  Bump on any layout or hash change; version 2 moved the
 *  content keys and the body checksum from FNV-1a to the word hash,
 *  version 3 dropped the D-SymGS level schedule from the body, version 4
 *  the timing-walk partition boundaries, version 5 the block-row group
 *  plan and three never-read records (operand lane counts, diagonal
 *  row counts, per-row non-zero counts). */
constexpr uint32_t kSchedCacheMagic = 0xA15ECAC1;
constexpr uint32_t kSchedCacheVersion = 5;

Engine::Engine(const AccelParams &params)
    : _params(params), _memory(params), _fcu(params),
      _rcu(params, &_memory), _stats("alrescha")
{
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

Engine::~Engine() = default;

void
Engine::program(const LocallyDenseMatrix *ld, const ConfigTable *table)
{
    ALR_ASSERT(ld != nullptr && table != nullptr, "null program");
    ALR_ASSERT(ld->omega() == table->omega(), "omega mismatch");
    ALR_ASSERT(table->entries().empty() ||
                   table->entries().size() <= ld->blocks().size(),
               "table references more blocks than stored");
    _ld = ld;
    _table = table;
}

const ExecSchedule *
Engine::prepareSchedule()
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    if (_table->kernel() != KernelType::SpMV &&
        _table->kernel() != KernelType::SymGS)
        return nullptr;
    std::lock_guard<std::mutex> lock(_scheduleMutex);
    for (size_t i = 0; i < _schedules.size(); ++i) {
        ScheduleSlot &slot = _schedules[i];
        if (slot.ldGen != _ld->generation() ||
            slot.tableGen != _table->generation())
            continue;
        // A generation names exactly one construction, so a matching
        // slot must still describe the same shape; a mismatch means
        // the keyed object was mutated without a rebuild, which the
        // format types do not allow.
        ALR_ASSERT(slot.entryCount == _table->entries().size() &&
                       slot.blockCount == _ld->blocks().size() &&
                       slot.streamLen == _ld->stream().size() &&
                       slot.kernel == _table->kernel() &&
                       slot.omega == _ld->omega(),
                   "schedule-cache generation matched a different shape");
        if (i != 0)
            std::rotate(_schedules.begin(), _schedules.begin() + i,
                        _schedules.begin() + i + 1);
        ++_scheduleHits;
        return _schedules.front().sched.get();
    }

    // Generation miss: content hashes (computed only here, never on
    // the hit path) may still match a restored schedule -- the warm
    // start claims it without compiling.  A generation names one
    // immutable object, so a cached slot that shares the matrix or the
    // table already holds its digest: the SpMV and both SymGS misses
    // on one matrix hash it once.
    ScheduleSlot slot;
    slot.ldGen = _ld->generation();
    slot.tableGen = _table->generation();
    auto ldSlot = std::find_if(
        _schedules.begin(), _schedules.end(),
        [&](const ScheduleSlot &s) { return s.ldGen == slot.ldGen; });
    slot.ldHash = ldSlot != _schedules.end() ? ldSlot->ldHash
                                             : _ld->contentHash();
    auto tableSlot = std::find_if(
        _schedules.begin(), _schedules.end(),
        [&](const ScheduleSlot &s) { return s.tableGen == slot.tableGen; });
    slot.tableHash = tableSlot != _schedules.end() ? tableSlot->tableHash
                                                   : _table->contentHash();
    slot.entryCount = _table->entries().size();
    slot.blockCount = _ld->blocks().size();
    slot.streamLen = _ld->stream().size();
    slot.kernel = _table->kernel();
    slot.omega = _ld->omega();
    for (size_t i = 0; i < _restored.size(); ++i) {
        ScheduleSlot &r = _restored[i];
        if (r.ldHash != slot.ldHash || r.tableHash != slot.tableHash)
            continue;
        if (r.entryCount != slot.entryCount ||
            r.blockCount != slot.blockCount ||
            r.streamLen != slot.streamLen || r.kernel != slot.kernel ||
            r.omega != slot.omega) {
            // A matching hash over different shapes is either a
            // collision or a corrupted entry that slipped past the
            // parser; either way the compile path is the safe answer.
            warn("restored schedule hash matched a different shape; "
                 "recompiling");
            continue;
        }
        if (!scheduleFits(*r.sched, *_ld, *_table)) {
            // The body checksum is unkeyed, so a hand-edited file can
            // carry indices the replay would follow out of bounds.
            warn("restored schedule does not fit the programmed "
                 "matrix; recompiling");
            continue;
        }
        slot.sched = std::move(r.sched);
        _restored.erase(_restored.begin() + std::ptrdiff_t(i));
        ++_scheduleHits; // warm-start claim: served without a compile
        break;
    }
    if (!slot.sched) {
        slot.sched = std::make_unique<ExecSchedule>(
            compileSchedule(*_ld, *_table, _params));
        ++_scheduleCompiles;
    }
    _schedules.insert(_schedules.begin(), std::move(slot));
    size_t capacity = _params.scheduleCacheCapacity < 1
                          ? 1
                          : size_t(_params.scheduleCacheCapacity);
    if (_schedules.size() > capacity) {
        _schedules.pop_back();
        _scheduleEvictions += 1.0;
    }
    return _schedules.front().sched.get();
}

void
Engine::invalidateSchedules()
{
    std::lock_guard<std::mutex> lock(_scheduleMutex);
    _schedules.clear();
    _restored.clear();
    _graphPlan.reset();
}

bool
Engine::saveScheduleCache(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(_scheduleMutex);
    // Serialize the body first so the header can carry its checksum:
    // structural validation alone cannot catch a flipped byte inside a
    // serialized double, but the digest catches any corruption.
    std::ostringstream body;
    bio::writePod<uint32_t>(body, uint32_t(_schedules.size()));
    for (const ScheduleSlot &slot : _schedules) {
        bio::writePod<uint64_t>(body, slot.ldHash);
        bio::writePod<uint64_t>(body, slot.tableHash);
        bio::writePod<uint64_t>(body, uint64_t(slot.entryCount));
        bio::writePod<uint64_t>(body, uint64_t(slot.blockCount));
        bio::writePod<uint64_t>(body, uint64_t(slot.streamLen));
        bio::writePod<uint8_t>(body, uint8_t(slot.kernel));
        bio::writePod<uint32_t>(body, slot.omega);
        serializeSchedule(body, *slot.sched);
    }
    const std::string bytes = std::move(body).str();
    bio::writePod<uint32_t>(out, kSchedCacheMagic);
    bio::writePod<uint32_t>(out, kSchedCacheVersion);
    bio::writePod<uint64_t>(out, scheduleParamsFingerprint(_params));
    bio::writePod<uint64_t>(out, uint64_t(bytes.size()));
    bio::writePod<uint64_t>(out, hash::words(bytes.data(), bytes.size()));
    out.write(bytes.data(), std::streamsize(bytes.size()));
    if (!out) {
        warn("failed writing schedule cache");
        return false;
    }
    return true;
}

bool
Engine::saveScheduleCacheFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        warn("cannot create schedule cache '%s'", path.c_str());
        return false;
    }
    return saveScheduleCache(out);
}

bool
Engine::loadScheduleCache(std::istream &in)
{
    // Parse everything into a staging vector first: a file that goes
    // bad halfway contributes nothing (recompile-only fallback), never
    // a half-restored pool.
    std::vector<ScheduleSlot> staged;
    try {
        if (bio::readPod<uint32_t>(in) != kSchedCacheMagic)
            throw std::runtime_error("not an Alrescha schedule cache");
        if (bio::readPod<uint32_t>(in) != kSchedCacheVersion)
            throw std::runtime_error("schedule cache version mismatch");
        if (bio::readPod<uint64_t>(in) !=
            scheduleParamsFingerprint(_params))
            throw std::runtime_error(
                "schedule cache was compiled under different "
                "accelerator parameters");
        uint64_t bodyLen = bio::readPod<uint64_t>(in);
        uint64_t bodyHash = bio::readPod<uint64_t>(in);
        if (bodyLen > (uint64_t(1) << 34))
            throw std::runtime_error("implausible schedule cache size");
        // Grow the body with the bytes that actually arrive: a corrupted
        // length must not allocate what the file does not hold.
        std::string bytes;
        while (bytes.size() < bodyLen) {
            size_t at = bytes.size();
            size_t want = size_t(std::min<uint64_t>(
                bodyLen - at, std::max(at, size_t(1) << 20)));
            bytes.resize(at + want);
            in.read(bytes.data() + at, std::streamsize(want));
            if (size_t(in.gcount()) != want)
                throw std::runtime_error("truncated schedule cache");
        }
        if (hash::words(bytes.data(), bytes.size()) != bodyHash)
            throw std::runtime_error("schedule cache checksum mismatch");
        std::istringstream body(std::move(bytes));
        uint32_t count = bio::readPod<uint32_t>(body);
        if (count > 4096)
            throw std::runtime_error("implausible schedule count");
        for (uint32_t i = 0; i < count; ++i) {
            ScheduleSlot slot;
            slot.ldHash = bio::readPod<uint64_t>(body);
            slot.tableHash = bio::readPod<uint64_t>(body);
            slot.entryCount = size_t(bio::readPod<uint64_t>(body));
            slot.blockCount = size_t(bio::readPod<uint64_t>(body));
            slot.streamLen = size_t(bio::readPod<uint64_t>(body));
            slot.kernel = KernelType(bio::readPod<uint8_t>(body));
            slot.omega = bio::readPod<uint32_t>(body);
            slot.sched =
                std::make_unique<ExecSchedule>(deserializeSchedule(body));
            // Function pointers do not serialize: re-stamp the replay
            // entry points for this process's ISA and knobs, making
            // the restored schedule indistinguishable from a fresh
            // compile.
            replay::specialize(*slot.sched, _params);
            staged.push_back(std::move(slot));
        }
    } catch (const std::exception &e) {
        warn("schedule cache unusable (%s); will recompile", e.what());
        return false;
    }

    std::lock_guard<std::mutex> lock(_scheduleMutex);
    for (ScheduleSlot &slot : staged) {
        // Last load wins on a duplicate key; the pool stays bounded by
        // what callers load, not by lookup traffic.
        auto dup = std::find_if(
            _restored.begin(), _restored.end(), [&](const ScheduleSlot &r) {
                return r.ldHash == slot.ldHash &&
                       r.tableHash == slot.tableHash;
            });
        if (dup != _restored.end())
            *dup = std::move(slot);
        else
            _restored.push_back(std::move(slot));
    }
    return true;
}

bool
Engine::loadScheduleCacheFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // cold start: no cache yet, not an error
    return loadScheduleCache(in);
}

Value *
Engine::stageOperand(const ExecSchedule &S, const DenseVector &x)
{
    // Copy the operand once into the 64-byte-aligned, chunk-padded
    // staging buffer the gather plan indexes; the zero tail stands in
    // for the reference model's per-lane out-of-range masking (see
    // replay.cc for the bit-identity argument).
    _xpad.resize(S.paddedOperand);
    std::copy(x.begin(), x.end(), _xpad.begin());
    std::fill(_xpad.begin() + std::ptrdiff_t(x.size()), _xpad.end(), 0.0);
    return _xpad.data();
}

uint64_t
Engine::streamBlockCycles(const LdBlockInfo &blk) const
{
    // One block row of omega operands issues per cycle; the memory pipe
    // may be the slower side for wide blocks.
    uint64_t compute = _params.omega;
    uint64_t mem = _memory.streamCycles(uint64_t(blk.size) * sizeof(Value));
    return std::max(compute, mem);
}

uint64_t
Engine::streamRowsCycles(Index rows_streamed) const
{
    // With row skipping only the occupied block rows cross the bus and
    // occupy FCU issue slots.
    uint64_t bytes =
        uint64_t(rows_streamed) * _params.omega * sizeof(Value);
    return std::max<uint64_t>(rows_streamed, _memory.streamCycles(bytes));
}

void
Engine::addTiming(RunTiming *timing, const RunTiming &delta)
{
    _cycles += double(delta.cycles);
    _seqCycles += double(delta.seqCycles);
    _parCycles += double(delta.parCycles);
    ++_runs;
    _runCycles.sample(double(delta.cycles));
    if (_snapshotter)
        _snapshotter->maybeSample(totalCycles());
    if (timing)
        *timing = delta;
}

void
Engine::emitTimelineTail(uint64_t base, const RunTiming &t,
                         const char *run_name)
{
    if (!timeline::enabled())
        return;
    if (run_name)
        timeline::span(run_name, "datapath", timeline::kTidDataPath, base,
                       t.cycles);
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

DenseVector
Engine::runSpmv(const DenseVector &x, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    const ExecSchedule &S = *prepareSchedule();
    DenseVector y(_ld->rows(), 0.0);

    timeline::ScopedHostSpan hostSpan("spmv.sched", "run");
    const uint64_t tlBase = totalCycles();
    profile::RunScope prof;

    // Functional pass, in path order (the config table's order, and
    // thus its FP accumulation order into y): the ω-wide work happens
    // in the replay kernels against the staged operand.
    S.fns.spmv(S, stageOperand(S, x), y.data(), 0, S.pathCount);

    RunTiming t = gemvTiming(S, 0, tlBase, prof);
    emitTimelineTail(tlBase, t, nullptr);
    addTiming(timing, t);
    return y;
}

RunTiming
Engine::gemvTiming(const ExecSchedule &S, size_t k, uint64_t tl_base,
                   profile::RunScope &prof)
{
    // Timing walk: the in-order walk (pwalk.hh) replays the config
    // table's exact cache access sequence -- the cache is stateful
    // across runs -- then the schedule's per-run totals flush in one
    // batch, scaled by the right-hand-side count for SpMM.
    const double reps = k == 0 ? 1.0 : double(k);
    pwalk::Ctx ctx{_params, _rcu, _memory, tl_base};
    pwalk::GemvTiming g = pwalk::gemvWalk(ctx, S, k, prof);
    RunTiming t;
    t.cycles = g.cycles;
    t.parCycles = g.parCycles;
    if (S.pathCount > 0) {
        _rcu.setConfigured(S.lastDp);
        _rcu.noteReconfigs(S.reconfigCount, S.reconfigStall);
        _memory.recordStream(k == 0 ? S.totalStreamBytes
                                    : S.spmmStreamBytes);
        _fcu.noteOps(FcuOpCounts{S.fcuOps.alu * reps,
                                 S.fcuOps.reduce * reps,
                                 S.fcuOps.mul * reps,
                                 S.fcuOps.add * reps});
        if (S.parFlops != 0.0)
            _parFlops += S.parFlops * reps;
        if (S.usefulBytes != 0.0)
            _usefulBytes += S.usefulBytes;
    }
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(DataPathType::Gemv, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    return t;
}

std::vector<DenseVector>
Engine::runSpmm(const std::vector<DenseVector> &xs, RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    ALR_ASSERT(_table->kernel() == KernelType::SpMV,
               "table was converted for %s", toString(_table->kernel()));
    ALR_ASSERT(!xs.empty(), "spmm needs at least one right-hand side");
    for (const DenseVector &x : xs)
        ALR_ASSERT(x.size() == _ld->cols(), "operand length mismatch");

    const ExecSchedule &S = *prepareSchedule();
    const size_t k = xs.size();
    std::vector<DenseVector> ys(k, DenseVector(_ld->rows(), 0.0));

    timeline::ScopedHostSpan hostSpan("spmm.sched", "run");
    const uint64_t tlBase = totalCycles();
    profile::RunScope prof;

    // Functional pass (see runSpmv): the block streams once, its rows
    // issue once per right-hand side.  All k operands stage into one
    // aligned buffer at a 64-byte-rounded stride so every per-RHS
    // chunk load is a full-width aligned load.
    const size_t stride = (S.paddedOperand + 7) & ~size_t(7);
    _xpadMulti.resize(stride * k);
    std::vector<const Value *> xp(k);
    std::vector<Value *> yp(k);
    for (size_t j = 0; j < k; ++j) {
        Value *dst = _xpadMulti.data() + j * stride;
        std::copy(xs[j].begin(), xs[j].end(), dst);
        std::fill(dst + xs[j].size(), dst + stride, 0.0);
        xp[j] = dst;
        yp[j] = ys[j].data();
    }
    S.fns.spmm(S, xp.data(), yp.data(), k, 0, S.pathCount);

    RunTiming t = gemvTiming(S, k, tlBase, prof);
    emitTimelineTail(tlBase, t, "spmm");
    addTiming(timing, t);
    return ys;
}

void
Engine::runSymgsSweep(const DenseVector &b, DenseVector &x,
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

    const ExecSchedule &S = *prepareSchedule();
    const Index omega = _params.omega;
    const DenseVector &diag = _ld->diagonal();
    RunTiming t;

    timeline::ScopedHostSpan hostSpan("symgs.sched", "run");
    const uint64_t tlBase = totalCycles();
    profile::RunScope prof;
    uint64_t stream_t = 0; // streaming/pipelined front
    uint64_t dep_t = 0;    // completion of the dependence chain

    if (S.pathCount > 0) {
        // Functional pass, in path order: it is the sweep's own
        // recurrence (each diagonal chain updates x for the GEMV
        // gathers that follow).  Every GEMV path gathers its ω partial
        // sums through the replay kernels into the link stack; every
        // D-SymGS path pops them and runs its scalar diagonal chain.
        // The iterate stages into the padded aligned buffer once and is
        // the working vector for the whole sweep.
        const size_t depth0 = _rcu.linkStack().depth();
        Value *xw = stageOperand(S, x);
        std::vector<Value> partials(omega);
        std::vector<Value> lanes(fcutree::ceilPow2(omega));
        for (size_t i = 0; i < S.pathCount; ++i) {
            if (S.dp[i] == DataPathType::Gemv) {
                std::fill(partials.begin(), partials.end(), 0.0);
                S.fns.symgs(S, i, xw, partials.data());
                _rcu.linkStack().push(partials);
                continue;
            }
            const Index r0 = S.blockRow[i] * omega;
            DenseVector acc = _rcu.linkStack().popAccumulate(omega);
            for (size_t rr = S.rowBegin[i]; rr < S.rowBegin[i + 1]; ++rr) {
                Index r = S.rowIndex[rr];
                Index lr = r - r0;
                const Value *v = &S.values[rr * omega];
                // The diagonal lane stays explicitly masked (its value
                // and its operand both count as zero; the padded buffer
                // covers the matrix-edge lanes).
                for (Index lc = 0; lc < omega; ++lc)
                    lanes[lc] = v[lc] * (lc == lr ? 0.0 : xw[r0 + lc]);
                Value dot = fcutree::sumTree(lanes.data(), omega);
                Value sum = acc[lr] + dot;
                xw[r] = (b[r] - sum) / diag[r];
            }
        }
        std::copy(_xpad.begin(), _xpad.begin() + std::ptrdiff_t(x.size()),
                  x.begin());

        // Timing walk: simulates the link-stack depth from its value
        // before the functional pass.
        pwalk::Ctx ctx{_params, _rcu, _memory, tlBase};
        pwalk::SymgsTiming st = pwalk::symgsWalk(ctx, S, depth0, prof);
        stream_t = st.streamT;
        dep_t = st.depT;
        t.seqCycles = st.seqCycles;
        _rcu.setConfigured(S.lastDp);
        _rcu.noteReconfigs(S.reconfigCount, S.reconfigStall);
        _memory.recordStream(S.totalStreamBytes);
        _fcu.noteOps(S.fcuOps);
        _rcu.notePeOps(S.peOps);
        if (S.parFlops != 0.0)
            _parFlops += S.parFlops;
        if (S.seqFlops != 0.0)
            _seqFlops += S.seqFlops;
        if (S.usefulBytes != 0.0)
            _usefulBytes += S.usefulBytes;
    }
    t.parCycles = stream_t;
    t.cycles = std::max(stream_t, dep_t) + uint64_t(_params.drainCycles());
    prof.add(DataPathType::DSymgs, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));
    prof.commitSymgs(stream_t, dep_t,
                     uint64_t(_params.pipelineDepth()));
    emitTimelineTail(tlBase, t, nullptr);
    addTiming(timing, t);
}

DenseVector
Engine::runRelaxRound(const DenseVector &dist, RunTiming *timing)
{
    return graphRound(GraphOp::Relax, dist, nullptr, nullptr, timing);
}

DenseVector
Engine::runRelaxRound(const DenseVector &dist,
                      const std::vector<uint8_t> &active_chunks,
                      RunTiming *timing)
{
    return graphRound(GraphOp::Relax, dist, nullptr, &active_chunks,
                      timing);
}

DenseVector
Engine::runLabelRound(const DenseVector &labels, RunTiming *timing)
{
    return graphRound(GraphOp::Label, labels, nullptr, nullptr, timing);
}

DenseVector
Engine::runLabelRound(const DenseVector &labels,
                      const std::vector<uint8_t> &active_chunks,
                      RunTiming *timing)
{
    return graphRound(GraphOp::Label, labels, nullptr, &active_chunks,
                      timing);
}

DenseVector
Engine::runPrRound(const DenseVector &rank,
                   const std::vector<Index> &outdeg, RunTiming *timing)
{
    return graphRound(GraphOp::PageRank, rank, &outdeg, nullptr, timing);
}

const GraphPlan &
Engine::graphPlan()
{
    if (!_graphPlan || _graphPlan->ldGeneration != _ld->generation() ||
        _graphPlan->blockBegin.size() != _ld->blocks().size() + 1) {
        _graphPlan.reset(); // release the old plan before building
        _graphPlan = std::make_unique<GraphPlan>(
            buildGraphPlan(*_ld, _params.skipEmptyBlockRows));
    }
    return *_graphPlan;
}

DenseVector
Engine::graphRound(GraphOp op, const DenseVector &in,
                   const std::vector<Index> *outdeg,
                   const std::vector<uint8_t> *active_chunks,
                   RunTiming *timing)
{
    ALR_ASSERT(_ld && _table, "engine not programmed");
    const bool pr = op == GraphOp::PageRank;
    const KernelType kernel = _table->kernel();
    if (pr) {
        ALR_ASSERT(kernel == KernelType::PageRank,
                   "table was converted for %s", toString(kernel));
        ALR_ASSERT(in.size() == _ld->rows() &&
                       outdeg->size() == _ld->rows(),
                   "operand length mismatch");
    } else {
        ALR_ASSERT(kernel == KernelType::BFS || kernel == KernelType::SSSP,
                   "table was converted for %s", toString(kernel));
        ALR_ASSERT(in.size() == _ld->rows(), "operand length mismatch");
    }

    const Index omega = _params.omega;
    const Index rows = _ld->rows();
    const Index cols = _ld->cols();
    const bool skip = _params.skipEmptyBlockRows;
    const ReduceOp reduce = pr ? ReduceOp::Sum : ReduceOp::Min;
    // Relax addend: D-BFS counts hops, D-SSSP adds the edge weight,
    // label propagation adds nothing.
    const bool weighted = op == GraphOp::Relax && kernel == KernelType::SSSP;
    const Value addend = op == GraphOp::Label ? 0.0 : 1.0;
    constexpr Value inf = std::numeric_limits<Value>::infinity();
    if (active_chunks) {
        ALR_ASSERT(active_chunks->size() >= (cols + omega - 1) / omega,
                   "frontier mask too short");
    }
    timeline::ScopedHostSpan hostSpan(pr ? "pagerank" : "relax", "run");
    const GraphPlan &plan = graphPlan();
    const size_t words = plan.words;
    const uint64_t tlBase = totalCycles();
    profile::RunScope prof;
    const uint64_t lineBytes = _params.cacheLineBytes;
    DataPathType drainDp = DataPathType::Gemv;

    // PageRank phase 1 (the PE divisions), once per source vertex:
    // contrib[src] = rank[src] / outdeg[src] for src < rows with
    // out-edges, else 0.0.  Every block of a source chunk still charges
    // that chunk's divisions (peCount) to the PE op count.
    const size_t chunks = (size_t(cols) + omega - 1) / omega;
    std::vector<Value> contrib;
    std::vector<Index> peCount;
    if (pr) {
        contrib.assign(chunks * omega, 0.0);
        peCount.assign(chunks, 0);
        for (size_t src = 0; src < contrib.size() && src < rows; ++src) {
            if ((*outdeg)[src] > 0) {
                contrib[src] = in[src] / Value((*outdeg)[src]);
                ++peCount[src / omega];
            }
        }
    }

    // Per-occupancy stream terms (row skipping streams whole block rows).
    std::vector<uint64_t> rowsCycles(omega + 1), rowsMem(omega + 1);
    for (Index k = 0; k <= omega; ++k) {
        rowsCycles[k] = streamRowsCycles(k);
        rowsMem[k] =
            _memory.streamCycles(uint64_t(k) * omega * sizeof(Value));
    }

    // Streaming-mode cache accesses resolve against a run-local line
    // image, installed once after the walk.  A streaming read never
    // stalls: a miss only charges the line fill's share of the pipe
    // (CacheModel::read).
    CacheModel::Shadow cache(_rcu.cache());
    const uint64_t missCycles = _memory.streamCycles(lineBytes);

    DenseVector out(rows, pr ? 0.0 : inf);
    RunTiming t;
    bool filled = false;
    int64_t curRow = -1;
    uint64_t streamed = 0, usefulLanes = 0, laneOps = 0, peOps = 0;

    auto read = [&](DataPathType dp, int64_t row, CacheVec vec,
                    Index chunk) {
        if (!cache.read(vec, chunk)) {
            t.cycles += missCycles;
            if (prof.on())
                prof.add(dp, row, Cause::CacheMiss, missCycles, lineBytes);
        }
    };
    // Out-chunk flush of a finished block row: relax rounds compare
    // with the old distance chunk first (Table 1, phase 3).
    auto flushRow = [&](DataPathType dp, int64_t row) {
        if (!pr)
            read(dp, row, CacheVec::Out, Index(row));
        if (!cache.write(CacheVec::Out, Index(row)) && prof.on())
            prof.add(dp, row, Cause::CacheMiss, 0, lineBytes);
    };

    std::vector<Value> lane(fcutree::ceilPow2(omega));
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
            uint64_t fill = uint64_t(_fcu.fillLatency(reduce));
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, fill);
            t.cycles += fill;
            filled = true;
        }
        if (int64_t(blk.blockRow) != curRow) {
            if (curRow >= 0)
                flushRow(e.dp, curRow);
            curRow = blk.blockRow;
        }
        // Source chunk (port 1), plus the out-degree chunk (port 2) for
        // PageRank.
        read(e.dp, blk.blockRow, CacheVec::Xt, blk.blockCol);
        if (pr) {
            read(e.dp, blk.blockRow, CacheVec::Aux, blk.blockCol);
            peOps += peCount[blk.blockCol];
        }

        // Functional pass over the block's planned rows.  Every lane
        // goes through the canonical tree: PageRank multiplies the 0/1
        // pattern into every contribution (0 x inf must stay NaN, and
        // signed zeros must match), and relax rounds feed absent edges
        // the +inf identity.
        const Index c0 = blk.blockCol * omega;
        const Index r0 = blk.blockRow * omega;
        const Index srcLanes = c0 < cols ? std::min(omega, cols - c0) : 0;
        const int32_t *lut = nullptr;
        if (weighted)
            lut = _ld->payloadLut(_ld->layout() == LdLayout::SymGs &&
                                      blk.isDiagonal(),
                                  blk.blockCol > blk.blockRow);
        Index occupied = 0;
        for (uint32_t k = plan.blockBegin[e.blockId];
             k < plan.blockBegin[e.blockId + 1]; ++k) {
            const uint64_t *m = &plan.mask[size_t(k) * words];
            const Index lr = plan.localRow[k];
            const Index r = r0 + lr;
            Index useful = 0;
            if (pr) {
                const Value *cb = &contrib[c0];
                for (Index lc = 0; lc < omega; ++lc) {
                    bool bit = (m[lc / 64] >> (lc % 64)) & 1;
                    useful += bit;
                    lane[lc] = (bit ? 1.0 : 0.0) * cb[lc];
                }
            } else {
                for (Index lc = 0; lc < omega; ++lc) {
                    bool bit = ((m[lc / 64] >> (lc % 64)) & 1) &&
                               lc < srcLanes;
                    if (!bit) {
                        lane[lc] = inf;
                        continue;
                    }
                    ++useful;
                    Value w = addend;
                    if (weighted) {
                        int32_t pos = lut[size_t(lr) * omega + lc];
                        w = pos < 0 ? _ld->diagonal()[r]
                                    : _ld->stream()[blk.offset +
                                                    size_t(pos)];
                    }
                    lane[lc] = in[c0 + lc] + w;
                }
            }
            if (useful == 0 && skip)
                continue;
            ++occupied;
            if (pr) {
                out[r] += fcutree::sumTree(lane.data(), omega);
                laneOps += omega;
            } else {
                out[r] = std::min(out[r],
                                  fcutree::minTree(lane.data(), omega));
                laneOps += useful;
            }
            usefulLanes += useful;
        }

        uint64_t bc, streamedBytes, memC;
        if (skip) {
            streamedBytes = uint64_t(occupied) * omega * sizeof(Value);
            bc = rowsCycles[occupied];
            memC = rowsMem[occupied];
        } else {
            streamedBytes = uint64_t(blk.size) * sizeof(Value);
            bc = streamBlockCycles(blk);
            memC = prof.on() ? _memory.streamCycles(streamedBytes) : 0;
        }
        streamed += streamedBytes;
        if (prof.on()) {
            prof.add(e.dp, blk.blockRow, Cause::Stream, memC,
                     streamedBytes);
            prof.add(e.dp, blk.blockRow, Cause::FcuCompute, bc - memC);
        }
        t.cycles += bc;
        t.parCycles += bc;
    }
    if (curRow >= 0)
        flushRow(drainDp, curRow);
    t.cycles += uint64_t(_params.drainCycles());
    prof.add(drainDp, -1, Cause::TreeDrain,
             uint64_t(_params.drainCycles()));

    // Install the line image and flush every counter in one batch.
    // All are integers below 2^53, so each batched add is bit-identical
    // to the per-access and per-block increments it replaces.
    cache.commit();
    _memory.recordStream(streamed);
    FcuOpCounts ops;
    ops.alu = ops.reduce = double(laneOps);
    (pr ? ops.mul : ops.add) = double(laneOps);
    _fcu.noteOps(ops);
    if (pr)
        _rcu.notePeOps(double(peOps));
    if (usefulLanes != 0) {
        _parFlops += 2.0 * double(usefulLanes);
        _usefulBytes += double(usefulLanes) * sizeof(Value);
    }
    const char *name = pr ? "d-pr"
                       : op == GraphOp::Label
                           ? "d-cc"
                           : (kernel == KernelType::BFS ? "d-bfs"
                                                        : "d-sssp");
    emitTimelineTail(tlBase, t, name);
    addTiming(timing, t);
    if (pr)
        return out;

    DenseVector next(in.size());
    for (size_t v = 0; v < in.size(); ++v)
        next[v] = std::min(in[v], out[v]);
    return next;
}

double
Engine::sequentialOpFraction() const
{
    double total = _seqFlops.value() + _parFlops.value();
    return total > 0.0 ? _seqFlops.value() / total : 0.0;
}

double
Engine::seconds() const
{
    return _cycles.value() * _params.secondsPerCycle();
}

double
Engine::bandwidthUtilization() const
{
    double cycles = _cycles.value();
    if (cycles <= 0.0)
        return 0.0;
    return _usefulBytes.value() / (cycles * _params.bytesPerCycle());
}

double
Engine::cacheTimeFraction() const
{
    double cycles = _cycles.value();
    if (cycles <= 0.0)
        return 0.0;
    return _rcu.cache().busyCycles() / cycles;
}

void
Engine::reset()
{
    _memory.reset();
    _fcu.reset();
    _rcu.reset();
    _cycles.reset();
    _seqCycles.reset();
    _parCycles.reset();
    _seqFlops.reset();
    _parFlops.reset();
    _usefulBytes.reset();
    _runs.reset();
    _scheduleEvictions.reset();
    _runCycles.reset();
}

} // namespace alr

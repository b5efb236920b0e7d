#include "alrescha/sim/schedule.hh"

#include <algorithm>

#include "alrescha/sim/memory.hh"
#include "alrescha/sim/replay.hh"
#include "common/logging.hh"

namespace alr {

namespace {

/**
 * Mirror of Rcu::reconfigure for transitions whose predecessor is known
 * at compile time: the drain always overlaps the switch rewrite, so the
 * charge is drain + exposed and the stall stat counts only the exposed
 * part.  (The first path of a run transitions from whatever the switch
 * held after the previous run, so it is replayed at runtime instead.)
 */
struct ReconfigDelta
{
    uint32_t cycles = 0;
    double count = 0.0;
    double stall = 0.0;
};

ReconfigDelta
reconfigDelta(const AccelParams &params, DataPathType from, DataPathType to)
{
    ReconfigDelta d;
    if (from == to)
        return d;
    int drain = params.drainCycles();
    int exposed = std::max(0, params.configCycles - drain);
    d.cycles = uint32_t(drain + exposed);
    d.count = 1.0;
    d.stall = double(exposed);
    return d;
}

/** Length the operand is staged to for @p kernel's gather plan: the
 *  SpMV operand (cols entries) or the SymGS iterate (rows entries),
 *  rounded up to whole ω-wide chunks. */
size_t
paddedOperandLength(const LocallyDenseMatrix &ld, KernelType kernel,
                    size_t omega)
{
    const size_t len = kernel == KernelType::SpMV
                           ? ld.cols()
                           : std::max(ld.rows(), ld.cols());
    return (len + omega - 1) / omega * omega;
}

} // namespace

size_t
ExecSchedule::bytes() const
{
    auto vecBytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return vecBytes(dp) + vecBytes(blockRow) + vecBytes(blockCol) +
           vecBytes(operandVec) + vecBytes(cfgCycles) +
           vecBytes(fillCycles) + vecBytes(writeOutRow) +
           vecBytes(streamCycles) + vecBytes(memCycles) +
           vecBytes(streamBytes) + vecBytes(streamedRows) +
           vecBytes(spmmMemCycles) + vecBytes(xOff) +
           vecBytes(chainCycles) + vecBytes(rowBegin) +
           vecBytes(rowIndex) + vecBytes(values);
}

ExecSchedule
compileSchedule(const LocallyDenseMatrix &ld, const ConfigTable &table,
                const AccelParams &params)
{
    ALR_ASSERT(table.kernel() == KernelType::SpMV ||
                   table.kernel() == KernelType::SymGS,
               "only SpMV and SymGS tables are schedulable");
    ALR_ASSERT(ld.omega() == table.omega(), "omega mismatch");

    const Index omega = params.omega;
    const Index rows = ld.rows();
    const bool spmv = table.kernel() == KernelType::SpMV;
    const bool backward = table.direction() == GsSweep::Backward;
    const MemoryModel mem(params);
    const Fcu fcu(params);
    const int fillSum = fcu.fillLatency(ReduceOp::Sum);
    const int stepLat = params.aluLatency + 2 * params.peLatency;

    ExecSchedule s;
    s.kernel = table.kernel();
    s.omega = omega;
    s.pathCount = table.entries().size();

    const size_t P = s.pathCount;
    s.dp.resize(P);
    s.blockRow.resize(P);
    s.blockCol.resize(P);
    s.operandVec.resize(P, CacheVec::Xt);
    s.cfgCycles.resize(P, 0);
    s.fillCycles.resize(P, 0);
    s.writeOutRow.resize(P, -1);
    s.streamCycles.resize(P, 0);
    s.memCycles.resize(P, 0);
    s.streamBytes.resize(P, 0);
    s.streamedRows.resize(P, 0);
    s.spmmMemCycles.resize(P, 0);
    s.xOff.resize(P, 0);
    s.chainCycles.resize(P, 0);
    s.rowBegin.resize(P + 1, 0);

    bool filled = false;
    int64_t curRow = -1;

    for (size_t i = 0; i < P; ++i) {
        const ConfigEntry &e = table.entries()[i];
        const LdBlockInfo &blk = ld.blocks()[e.blockId];
        s.dp[i] = e.dp;
        s.blockRow[i] = blk.blockRow;
        s.blockCol[i] = blk.blockCol;
        s.rowBegin[i] = s.rowIndex.size();

        // Reconfiguration: the i-1 -> i transition is a compile-time
        // fact; the run's first transition is replayed at runtime.
        bool dpSwitch = i > 0 && e.dp != s.dp[i - 1];
        if (i > 0) {
            ReconfigDelta d = reconfigDelta(params, s.dp[i - 1], e.dp);
            s.cfgCycles[i] = d.cycles;
            s.reconfigCount += d.count;
            s.reconfigStall += d.stall;
        }
        // The fill flag resets at run start and on every switch -- both
        // compile-time facts, so the whole fill pattern is static.
        if (i == 0 || dpSwitch)
            filled = false;

        bool diagPath = !spmv && e.dp == DataPathType::DSymgs;
        const bool diagBlk =
            ld.layout() == LdLayout::SymGs && blk.isDiagonal();
        const int32_t *lut =
            ld.payloadLut(diagBlk, blk.blockCol > blk.blockRow);
        const Value *stream = ld.stream().data() + blk.offset;
        const DenseVector &diag = ld.diagonal();

        if (!diagPath) {
            ALR_ASSERT(e.dp == DataPathType::Gemv,
                       "unexpected data path in %s table",
                       toString(table.kernel()));
            if (!filled) {
                s.fillCycles[i] = uint32_t(fillSum);
                filled = true;
            }
            if (spmv) {
                // Out-chunk writeback on block-row change.
                if (int64_t(blk.blockRow) != curRow) {
                    s.writeOutRow[i] = curRow;
                    curRow = blk.blockRow;
                }
                s.operandVec[i] = CacheVec::Xt;
            } else {
                s.operandVec[i] = e.op == OperandPort::Port1
                                      ? CacheVec::Xt
                                      : CacheVec::Xprev;
            }
            s.xOff[i] = blk.blockCol * omega;

            Index occupied = 0;
            for (Index lr = 0; lr < omega; ++lr) {
                Index r = blk.blockRow * omega + lr;
                if (r >= rows)
                    break;
                Index useful = 0;
                size_t base = s.values.size();
                s.values.resize(base + omega);
                for (Index lc = 0; lc < omega; ++lc) {
                    int32_t pos = lut[size_t(lr) * omega + lc];
                    Value v = pos >= 0 ? stream[pos]
                                       : (r < rows ? diag[r] : 0.0);
                    s.values[base + lc] = v;
                    if (v != 0.0)
                        ++useful;
                }
                if (useful == 0 && params.skipEmptyBlockRows) {
                    s.values.resize(base);
                    continue;
                }
                ++occupied;
                s.rowIndex.push_back(r);
                s.parFlops += 2.0 * useful;
                s.usefulBytes += double(useful) * sizeof(Value);
                s.fcuOps.mul += double(omega);
                s.fcuOps.alu += double(omega);
                s.fcuOps.reduce += double(omega);
            }

            uint64_t bytes, bc;
            if (params.skipEmptyBlockRows) {
                bytes = uint64_t(occupied) * omega * sizeof(Value);
                bc = std::max<uint64_t>(occupied, mem.streamCycles(bytes));
            } else {
                bytes = uint64_t(blk.size) * sizeof(Value);
                bc = std::max<uint64_t>(omega, mem.streamCycles(bytes));
            }
            s.streamCycles[i] = bc;
            s.memCycles[i] = mem.streamCycles(bytes);
            s.streamBytes[i] = bytes;
            s.totalStreamBytes += bytes;

            Index streamedRows =
                params.skipEmptyBlockRows ? occupied : omega;
            uint64_t spmmBytes =
                uint64_t(streamedRows) * omega * sizeof(Value);
            s.streamedRows[i] = streamedRows;
            s.spmmMemCycles[i] = mem.streamCycles(spmmBytes);
            s.spmmStreamBytes += spmmBytes;
        } else {
            // D-SymGS: the serialized diagonal chain.  Everything but
            // the cache traffic and the x recurrence is static.
            Index r0 = blk.blockRow * omega;
            s.xOff[i] = r0;
            Index validRows = Index(
                std::min<int64_t>(omega, int64_t(rows) - int64_t(r0)));
            uint64_t blkBytes = uint64_t(blk.size) * sizeof(Value);
            s.streamCycles[i] =
                std::max<uint64_t>(omega, mem.streamCycles(blkBytes));
            s.memCycles[i] = mem.streamCycles(blkBytes);
            // Block payload plus the b operand through its FIFO.
            s.streamBytes[i] =
                blkBytes + uint64_t(validRows) * sizeof(Value);
            s.totalStreamBytes +=
                blkBytes + uint64_t(validRows) * sizeof(Value);
            s.usefulBytes += double(validRows) * sizeof(Value);
            s.chainCycles[i] = uint64_t(validRows) * uint64_t(stepLat);

            // Chain steps in execution order (reversed for backward
            // sweeps); the diagonal lane is pre-zeroed like the
            // reference model's operand rotation.
            for (Index step = 0; step < omega; ++step) {
                Index lr = backward ? omega - 1 - step : step;
                Index r = r0 + lr;
                if (r >= rows)
                    continue;
                Index useful = 0;
                size_t base = s.values.size();
                s.values.resize(base + omega);
                for (Index lc = 0; lc < omega; ++lc) {
                    if (lc == lr) {
                        s.values[base + lc] = 0.0;
                        continue;
                    }
                    int32_t pos = lut[size_t(lr) * omega + lc];
                    Value v = pos >= 0 ? stream[pos] : diag[r];
                    s.values[base + lc] = v;
                    if (v != 0.0)
                        ++useful;
                }
                s.rowIndex.push_back(r);
                s.fcuOps.mul += double(omega);
                s.fcuOps.alu += double(omega);
                s.fcuOps.reduce += double(omega);
                s.peOps += 2.0;
                s.seqFlops += 2.0 * useful + 2.0;
                s.usefulBytes += double(useful + 2) * sizeof(Value);
            }
            filled = false; // tree was used in single-shot mode
        }
    }
    s.rowBegin[P] = s.rowIndex.size();
    s.paddedOperand = paddedOperandLength(ld, s.kernel, omega);
    s.finalOutRow = spmv ? curRow : -1;
    if (P > 0)
        s.lastDp = s.dp[P - 1];

    // Row-layout shape for the replay specialization: when no GEMV
    // path skipped a row (skipEmptyBlockRows never fired inside a
    // path), row indices are consecutive per path and the specialized
    // kernels fold the rowIndex indirection to base + offset.
    s.contiguousRows = true;
    for (size_t i = 0; i < P && s.contiguousRows; ++i) {
        if (s.dp[i] != DataPathType::Gemv)
            continue;
        for (size_t rr = s.rowBegin[i] + 1; rr < s.rowBegin[i + 1]; ++rr) {
            if (s.rowIndex[rr] != s.rowIndex[rr - 1] + 1) {
                s.contiguousRows = false;
                break;
            }
        }
    }

    // Stamp the replay entry points: runtime ISA dispatch happens
    // here, once per compiled schedule, so the engine's hot loops
    // call fully resolved kernels.
    replay::specialize(s, params);
    return s;
}

bool
scheduleFits(const ExecSchedule &s, const LocallyDenseMatrix &ld,
             const ConfigTable &table)
{
    if (s.kernel != table.kernel() || s.omega != ld.omega() ||
        s.pathCount != table.entries().size() ||
        s.paddedOperand != paddedOperandLength(ld, s.kernel, s.omega))
        return false;
    const uint64_t omega = s.omega;
    for (size_t i = 0; i < s.pathCount; ++i) {
        if (uint64_t(s.xOff[i]) + omega > s.paddedOperand)
            return false;
        const uint64_t r0 = uint64_t(s.blockRow[i]) * omega;
        for (size_t rr = s.rowBegin[i]; rr < s.rowBegin[i + 1]; ++rr) {
            const uint64_t r = s.rowIndex[rr];
            if (r >= ld.rows() || r < r0 || r - r0 >= omega)
                return false;
        }
    }
    return true;
}

GraphPlan
buildGraphPlan(const LocallyDenseMatrix &ld, bool skip_empty_rows)
{
    const Index omega = ld.omega();
    const size_t words = (size_t(omega) + 63) / 64;
    const std::vector<LdBlockInfo> &blocks = ld.blocks();
    const Value *stream = ld.stream().data();

    GraphPlan p;
    p.ldGeneration = ld.generation();
    p.words = Index(words);

    // Size the records up front so the build never reallocates: every
    // occupied row holds at least one non-zero, and without skipping
    // every in-range row is listed.
    size_t inRange = 0;
    for (const LdBlockInfo &blk : blocks)
        inRange += std::min<size_t>(
            omega, ld.rows() - size_t(blk.blockRow) * omega);
    size_t records =
        skip_empty_rows ? std::min<size_t>(inRange, ld.scalarNnz())
                        : inRange;
    ALR_ASSERT(inRange <= UINT32_MAX, "graph plan: %zu block rows",
               inRange);
    p.blockBegin.reserve(blocks.size() + 1);
    p.localRow.reserve(records);
    p.mask.reserve(records * words);

    p.blockBegin.push_back(0);
    std::vector<uint64_t> row(words);
    for (const LdBlockInfo &blk : blocks) {
        bool diagBlk = ld.layout() == LdLayout::SymGs && blk.isDiagonal();
        const int32_t *lut =
            ld.payloadLut(diagBlk, blk.blockCol > blk.blockRow);
        for (Index lr = 0; lr < omega; ++lr) {
            Index r = blk.blockRow * omega + lr;
            if (r >= ld.rows())
                break;
            std::fill(row.begin(), row.end(), 0);
            bool any = false;
            for (Index lc = 0; lc < omega; ++lc) {
                int32_t pos = lut[size_t(lr) * omega + lc];
                Value v = pos < 0 ? ld.diagonal()[r]
                                  : stream[blk.offset + size_t(pos)];
                if (v != 0.0) {
                    row[lc / 64] |= uint64_t(1) << (lc % 64);
                    any = true;
                }
            }
            if (!any && skip_empty_rows)
                continue;
            p.localRow.push_back(lr);
            p.mask.insert(p.mask.end(), row.begin(), row.end());
        }
        p.blockBegin.push_back(uint32_t(p.localRow.size()));
    }
    return p;
}

} // namespace alr

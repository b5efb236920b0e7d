#include "util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "common/hash.hh"
#include "common/random.hh"
#include "spans.hh"

namespace perfbench {

void
Outcome::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

void
Outcome::require(bool ok, const std::string &what)
{
    if (!ok) {
        correct = false;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

void
Modeled::add(const alr::Engine &e)
{
    cycles += e.totalCycles();
    bytesStreamed += e.memory().bytesStreamed();
    cacheHits += e.rcu().cache().hits();
    cacheMisses += e.rcu().cache().misses();
    reconfigurations += e.rcu().reconfigurations();
    aluOps += e.fcu().aluOps();
}

void
Modeled::report(Outcome &out) const
{
    double lookups = cacheHits + cacheMisses;
    out.add("engine.bytes_streamed", bytesStreamed, "B");
    out.add("engine.cache_hit_rate", lookups > 0 ? cacheHits / lookups : 0.0,
            "ratio");
    out.add("rcu.reconfigurations", reconfigurations, "count");
    out.add("fcu.alu_ops", aluOps, "count");
}

size_t
residentBytes(const alr::LocallyDenseMatrix &ld)
{
    const size_t lut = size_t(ld.omega()) * size_t(ld.omega());
    return ld.stream().size() * sizeof(alr::Value) +
           ld.blocks().size() * sizeof(alr::LdBlockInfo) +
           ld.diagonal().size() * sizeof(alr::Value) +
           (size_t(ld.blockRows()) + 1) * sizeof(alr::Index) +
           3 * lut * sizeof(int32_t);
}

size_t
residentBytes(const alr::ConfigTable &t)
{
    return t.entries().size() * sizeof(alr::ConfigEntry);
}

void
Layers::fromSpans(const Tracer &tr)
{
    mmioReadS = tr.perRunS("sparse.mmio_read");
    encodeS = tr.perRunS("format.encode");
    convertS = tr.perRunS("config_table.convert");
    ldHashS = tr.perRunS("format.content_hash");
    tableHashS = tr.perRunS("config_table.content_hash");
    prepareS = tr.perRunS("schedule.prepare");
    restoreS = tr.perRunS("schedule_io.restore");
    saveS = tr.perRunS("schedule_io.save");
    coldCompileS = tr.perRunS("serve.cold_compile");
    symgsSweepMs = tr.medianMs("engine.symgs_sweep");
    spmvCallMs = tr.medianMs("engine.spmv_call");
    prRoundMs = tr.medianMs("engine.pr_round");
    bfsRoundMs = tr.medianMs("engine.bfs_round");
    pcgHostS = tr.perRunS("kernels.pcg", /*self=*/true);
    goldenS = tr.perRunS("kernels.golden");
}

void
Layers::report(Outcome &out) const
{
    constexpr double kMb = 1.0 / (1024.0 * 1024.0);
    out.add("sparse.mmio_read_s", mmioReadS, "s");
    out.add("format.encode_s", encodeS, "s");
    out.add("config_table.convert_s", convertS, "s");
    out.add("format.content_hash_s", ldHashS, "s");
    out.add("config_table.content_hash_s", tableHashS, "s");
    out.add("schedule.prepare_s", prepareS, "s");
    out.add("schedule.compiles", compiles, "count");
    out.add("schedule.hits", hits, "count");
    out.add("schedule_io.restore_s", restoreS, "s");
    out.add("schedule_io.save_s", saveS, "s");
    out.add("serve.cold_compile_s", coldCompileS, "s");
    out.add("format.resident_mb", formatBytes * kMb, "MB");
    out.add("config_table.resident_mb", tableBytes * kMb, "MB");
    out.add("schedule.resident_mb", scheduleBytes * kMb, "MB");
    out.add("format.fill_ratio", fillRatio, "ratio");
    out.add("engine.symgs_sweep_ms", symgsSweepMs, "ms");
    out.add("engine.spmv_call_ms", spmvCallMs, "ms");
    out.add("engine.spmm_call_ms", spmmCallMs, "ms");
    out.add("engine.pr_round_ms", prRoundMs, "ms");
    out.add("engine.bfs_round_ms", bfsRoundMs, "ms");
    out.add("kernels.pcg_host_s", pcgHostS, "s");
    out.add("kernels.pcg_iterations", pcgIterations, "count");
    out.add("kernels.golden_s", goldenS, "s");
    out.add("serve.queue_wait_p50_ms", queueWaitP50Ms, "ms");
    out.add("serve.service_p50_ms", serviceP50Ms, "ms");
    out.add("serve.mean_batch", meanBatch, "count");
    out.add("serve.work_items", workItems, "count");
    out.add("serve.queue_high_water", queueHighWater, "count");
    out.add("serve.blocked_pushes", blockedPushes, "count");
    modeled.report(out);
    out.add("trace.overhead_s", traceOverheadS, "s");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

alr::DenseVector
seededVector(uint64_t seed, alr::Index n)
{
    alr::Rng rng(seed);
    alr::DenseVector v(n);
    for (alr::Index i = 0; i < n; ++i)
        v[i] = rng.nextDouble(-1.0, 1.0);
    return v;
}

uint64_t
digest(const alr::DenseVector &v)
{
    return alr::hash::fnv1a(v.data(), v.size() * sizeof(alr::Value));
}

uint64_t
subSeed(uint64_t seed, uint64_t tag)
{
    return alr::hash::fnv1aPod(tag, alr::hash::fnv1aPod(seed));
}

} // namespace perfbench

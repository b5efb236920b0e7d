/**
 * @file
 * Shared plumbing of the benchmark workloads: options, the outcome a
 * workload reports (metrics plus the output-check tally), and small
 * timing/statistics helpers.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "alrescha/config_table.hh"
#include "alrescha/format.hh"
#include "alrescha/sim/engine.hh"
#include "sparse/types.hh"

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Measured budget: whole jobs repeat while they fit (runJob). */
    double seconds = 10.0;
    /** true: per-layer (traced) run; false: end-to-end run. */
    bool trace = false;
    /** Scratch directory for generated files (inside the checkout). */
    std::string workDir = ".bench_build/work";
    /** Result document output ("" = none). */
    std::string resultPath;
    /** Chrome-trace output of the traced run ("" = none). */
    std::string spansPath;
};

class Tracer;

/** What one workload run reports. */
struct Outcome
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    std::vector<Metric> metrics;
    /** Operations attempted / failed (unconverged solve, wrong graph
     *  result, missing or wrong serve reply). */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** false when any check failed, including whole-run consistency
     *  checks that are not per-operation. */
    bool correct = true;

    void add(const std::string &name, double value, const std::string &unit);
    /** Count one checked operation; a failure is reported on stderr. */
    void check(bool ok, const std::string &what);
    /** A run-level consistency check (not an operation). */
    void require(bool ok, const std::string &what);
};

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/**
 * Modeled counters summed over one or more engines.  They are exact
 * and must not move for any host-only change; modeled_cycles is the
 * end-to-end one, the rest guard it per layer.
 */
struct Modeled
{
    uint64_t cycles = 0;
    double bytesStreamed = 0.0;
    double cacheHits = 0.0;
    double cacheMisses = 0.0;
    double reconfigurations = 0.0;
    double aluOps = 0.0;

    void add(const alr::Engine &e);
    bool operator==(const Modeled &o) const = default;
    /** engine.bytes_streamed, engine.cache_hit_rate,
     *  rcu.reconfigurations, fcu.alu_ops. */
    void report(Outcome &out) const;
};

/** Heap bytes of the locally-dense encoding, from its container sizes. */
size_t residentBytes(const alr::LocallyDenseMatrix &ld);
/** Heap bytes of a configuration table. */
size_t residentBytes(const alr::ConfigTable &t);

/**
 * Per-layer metrics every workload reports, zero where the workload
 * does not exercise the layer.  Names are BENCHMARK.json's per_layer
 * list; each workload fills what it measures and calls report().
 */
struct Layers
{
    double mmioReadS = 0.0;
    double encodeS = 0.0;
    double convertS = 0.0;
    double ldHashS = 0.0;
    double tableHashS = 0.0;
    double prepareS = 0.0;
    double compiles = 0.0;
    double hits = 0.0;
    double restoreS = 0.0;
    double saveS = 0.0;
    double coldCompileS = 0.0;
    /** Resident heap bytes, from container sizes (reported in MB). */
    double formatBytes = 0.0;
    double tableBytes = 0.0;
    double scheduleBytes = 0.0;
    double fillRatio = 0.0;
    double symgsSweepMs = 0.0;
    double spmvCallMs = 0.0;
    double spmmCallMs = 0.0;
    double prRoundMs = 0.0;
    double bfsRoundMs = 0.0;
    double pcgHostS = 0.0;
    double pcgIterations = 0.0;
    double goldenS = 0.0;
    double queueWaitP50Ms = 0.0;
    double serviceP50Ms = 0.0;
    double meanBatch = 0.0;
    double workItems = 0.0;
    double queueHighWater = 0.0;
    double blockedPushes = 0.0;
    double traceOverheadS = 0.0;
    Modeled modeled;

    /** Fill the span-derived fields shared by all workloads. */
    void fromSpans(const Tracer &tr);
    void report(Outcome &out) const;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Deterministic vector in [-1, 1) from @p seed. */
alr::DenseVector seededVector(uint64_t seed, alr::Index n);

/** Order-sensitive bitwise digest of a vector (input/output identity). */
uint64_t digest(const alr::DenseVector &v);

/** Seed of the input stream @p tag derived from the workload seed. */
uint64_t subSeed(uint64_t seed, uint64_t tag);

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH

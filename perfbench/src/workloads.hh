/**
 * @file
 * The benchmark's named workloads.  Each runs whole jobs within the
 * Options::seconds budget (see runJob), checks every output, and
 * reports either the end-to-end metrics (untraced run) or the
 * per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "spans.hh"
#include "util.hh"

namespace perfbench {

/** Jobs a run always measures, however short --seconds is: the
 *  medians need at least three samples. */
constexpr int kMinJobs = 3;

/**
 * Whether job @p job_id runs.  The first @p min_jobs always do (only
 * one in a --seconds 0 smoke run); later ones only while the mean job
 * so far still fits in --seconds, so a run ends near its budget.
 */
inline bool
runJob(const Options &opt, int job_id, double start_s,
       int min_jobs = kMinJobs)
{
    if (opt.seconds <= 0.0)
        return job_id == 0;
    if (job_id < min_jobs)
        return true;
    double elapsed = nowS() - start_s;
    return elapsed + elapsed / job_id <= opt.seconds;
}

/** Cold PDE solve: .mtx read, loadPde, schedule compile, PCG. */
Outcome runPdeCold(const Options &opt, Tracer &tr);

/** Kronecker graph analytics on the unscheduled direct-round path. */
Outcome runKronGraph(const Options &opt, Tracer &tr);

/** Warm-restart serving: restore schedule caches, drain a trace. */
Outcome runServeRestart(const Options &opt, Tracer &tr);

/** End-to-end metrics shared by every workload. */
struct EndToEnd
{
    std::vector<double> setupS;
    std::vector<double> runS;
    /** Per-request latency samples, ms (for the serve workload the
     *  drain's requests; otherwise one whole job each). */
    std::vector<double> latencyMs;
    uint64_t requests = 0;
    double requestWallS = 0.0;
    /** Peak RSS through the first job: later jobs only add allocator
     *  leftovers of their predecessors, which a real run never has. */
    double firstJobRssMb = 0.0;
    uint64_t modeledCycles = 0;

    /** Record one job that counts as one request (pde_cold and
     *  kron_graph: a request is a whole job). */
    void addJob(double setup_s, double run_s);
    void report(Outcome &out) const;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

/**
 * @file
 * pde_cold: the paper's headline kernel from a cold start.  A job reads
 * a 3D 27-point stencil from a Matrix Market file, loads it for PDE
 * work, prepares the SpMV and both SymGS schedules, and solves PCG with
 * the SymGS preconditioner to a fixed tolerance from a seeded RHS.
 */

#include <cstdio>
#include <memory>

#include "alrescha/accelerator.hh"
#include "kernels/blas1.hh"
#include "kernels/spmv.hh"
#include "sparse/generators.hh"
#include "sparse/mmio.hh"
#include "workloads.hh"

namespace perfbench {

using namespace alr;

namespace {

/** 40^3 grid: 64,000 rows, 1.64M non-zeros. */
constexpr Index kGrid = 40;
constexpr Value kTolerance = 1e-8;

PcgOptions
solveOptions()
{
    PcgOptions o;
    o.tolerance = kTolerance;
    o.maxIterations = 500;
    return o;
}

struct Job
{
    double setupS = 0.0;
    double runS = 0.0;
    PcgResult sol;
    CsrMatrix a;
    Modeled modeled;
};

/** A job through the public facade, as a user would write it. */
Job
facadeJob(const std::string &path, const DenseVector &b)
{
    Job job;
    double t0 = nowS();
    job.a = CsrMatrix::fromCoo(readMatrixMarketFile(path));
    Accelerator acc;
    acc.loadPde(job.a);
    Engine &eng = acc.engine();
    const LocallyDenseMatrix *ld = &acc.matrix();
    eng.program(ld, &acc.table(KernelType::SpMV));
    eng.prepareSchedule();
    eng.program(ld, &acc.table(KernelType::SymGS, GsSweep::Forward));
    eng.prepareSchedule();
    eng.program(ld, &acc.table(KernelType::SymGS, GsSweep::Backward));
    eng.prepareSchedule();
    double t1 = nowS();
    job.sol = acc.pcg(b, solveOptions());
    double t2 = nowS();
    job.setupS = t1 - t0;
    job.runS = t2 - t1;
    job.modeled.add(eng);
    return job;
}

/**
 * The same job with a span around every layer call, making the call
 * sequence of the facade: encode, convert, program/prepareSchedule,
 * then pcgSolveWith with the SpMV and SymGS lambdas Accelerator::pcg
 * wires.  Calls made only for attribution run after the job's spans.
 */
Job
tracedJob(Tracer &tr, const std::string &path, const DenseVector &b,
          Layers &layers)
{
    Job job;
    const AccelParams params;
    Engine eng(params);
    std::unique_ptr<LocallyDenseMatrix> ld;
    std::unique_ptr<ConfigTable> fwd, bwd, spmvT;
    {
        Scope setup(tr, "setup");
        {
            CooMatrix coo;
            {
                Scope s(tr, "sparse.mmio_read");
                coo = readMatrixMarketFile(path);
            }
            Scope s(tr, "sparse.to_csr");
            job.a = CsrMatrix::fromCoo(coo);
        }
        {
            Scope s(tr, "format.encode");
            ld = std::make_unique<LocallyDenseMatrix>(
                LocallyDenseMatrix::encode(job.a, params.omega,
                                           LdLayout::SymGs));
        }
        auto convert = [&](KernelType k, bool reorder, GsSweep dir) {
            Scope s(tr, "config_table.convert");
            return std::make_unique<ConfigTable>(
                ConfigTable::convert(k, *ld, reorder, dir));
        };
        fwd = convert(KernelType::SymGS, params.reorderDataPaths,
                      GsSweep::Forward);
        bwd = convert(KernelType::SymGS, params.reorderDataPaths,
                      GsSweep::Backward);
        spmvT = convert(KernelType::SpMV, true, GsSweep::Forward);
        layers.scheduleBytes = 0.0;
        for (const ConfigTable *table : {spmvT.get(), fwd.get(),
                                         bwd.get()}) {
            Scope s(tr, "schedule.prepare");
            eng.program(ld.get(), table);
            layers.scheduleBytes += double(eng.prepareSchedule()->bytes());
        }
    }
    double runStart = tr.nowUs();
    {
        Scope run(tr, "run");
        PcgKernels k;
        k.spmv = [&](const DenseVector &x) {
            Scope s(tr, "engine.spmv_call");
            eng.program(ld.get(), spmvT.get());
            return eng.runSpmv(x);
        };
        k.precond = [&](const DenseVector &r) {
            DenseVector z(r.size(), 0.0);
            for (const ConfigTable *table : {fwd.get(), bwd.get()}) {
                Scope s(tr, "engine.symgs_sweep");
                eng.program(ld.get(), table);
                eng.runSymgsSweep(r, z);
            }
            return z;
        };
        Scope s(tr, "kernels.pcg");
        job.sol = pcgSolveWith(k, b, ld->rows(), solveOptions());
    }
    job.runS = (tr.nowUs() - runStart) * 1e-6;
    job.modeled.add(eng);

    // Attribution only: each schedule miss hashes the matrix and its
    // table; time the same hashes outside the job.
    for (const ConfigTable *table : {spmvT.get(), fwd.get(),
                                     bwd.get()}) {
        {
            Scope s(tr, "format.content_hash");
            ld->contentHash();
        }
        Scope s(tr, "config_table.content_hash");
        table->contentHash();
    }
    {
        Scope s(tr, "kernels.golden");
        pcgSolve(job.a, b, solveOptions());
    }

    layers.compiles = double(eng.scheduleCompiles());
    layers.hits = double(eng.scheduleHits());
    layers.formatBytes = double(residentBytes(*ld));
    layers.tableBytes = double(residentBytes(*fwd) + residentBytes(*bwd) +
                               residentBytes(*spmvT));
    layers.fillRatio = double(ld->scalarNnz()) / double(ld->stream().size());
    layers.pcgIterations = job.sol.iterations;
    return job;
}

/** Check one solve: converged, and the true residual recomputed with
 *  the golden SpMV meets the tolerance. */
void
checkSolve(Outcome &out, const Job &job, const DenseVector &b)
{
    DenseVector ax = spmv(job.a, job.sol.x);
    DenseVector r(b.size());
    for (size_t i = 0; i < b.size(); ++i)
        r[i] = b[i] - ax[i];
    double rel = norm2(r) / norm2(b);
    char what[160];
    std::snprintf(what, sizeof(what),
                  "pcg: converged=%d iterations=%d residual=%.3e (tol %.1e)",
                  int(job.sol.converged), job.sol.iterations, rel,
                  kTolerance);
    out.check(job.sol.converged && rel <= kTolerance, what);
}

} // namespace

Outcome
runPdeCold(const Options &opt, Tracer &tr)
{
    Outcome out;
    // Inputs, made before any timing: the matrix file and the RHS.
    const std::string path = opt.workDir + "/pde_cold.mtx";
    {
        CsrMatrix a = gen::stencil3d(kGrid, kGrid, kGrid, 27);
        writeMatrixMarketFile(path, a.toCoo());
    }
    const Index n = kGrid * kGrid * kGrid;
    const DenseVector b = seededVector(subSeed(opt.seed, 1), n);
    std::printf("input_digest %016llx\n", (unsigned long long)digest(b));

    EndToEnd e2e;
    Layers layers;
    std::vector<double> tracedRunS;
    uint64_t outDigest = 0;
    Modeled first;
    double start = nowS();
    for (int jobId = 0; runJob(opt, jobId, start); ++jobId) {
        tr.setRun(jobId);
        Job job = facadeJob(path, b);
        checkSolve(out, job, b);
        if (jobId == 0) {
            first = job.modeled;
            outDigest = digest(job.sol.x);
            e2e.firstJobRssMb = peakRssMb();
        }
        out.require(job.modeled == first && digest(job.sol.x) == outDigest,
                    "pde_cold: a repeated job changed its result or "
                    "modeled counters");
        e2e.addJob(job.setupS, job.runS);

        if (opt.trace) {
            Job traced = tracedJob(tr, path, b, layers);
            checkSolve(out, traced, b);
            out.require(traced.modeled == first &&
                            digest(traced.sol.x) == outDigest,
                        "pde_cold: traced job differs from the facade job");
            tracedRunS.push_back(traced.runS);
        }
    }
    e2e.modeledCycles = first.cycles;
    std::printf("output_digest %016llx\n", (unsigned long long)outDigest);

    if (!opt.trace) {
        e2e.report(out);
        return out;
    }
    layers.fromSpans(tr);
    layers.modeled = first;
    layers.traceOverheadS = median(tracedRunS) - median(e2e.runS);
    layers.report(out);
    return out;
}

} // namespace perfbench

/**
 * @file
 * kron_graph: Fig 17's graph analytics.  A job loads a seeded R-MAT
 * (Kronecker) graph with loadGraph, then runs PageRank to tolerance
 * and BFS from a seeded source.  Both run on the engine's unscheduled
 * direct-round path over very sparse 8x8 blocks: no schedule compile,
 * no content hash, no Matrix Market read.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "alrescha/accelerator.hh"
#include "common/random.hh"
#include "sparse/generators.hh"
#include "workloads.hh"

namespace perfbench {

using namespace alr;

namespace {

/** 2^15 vertices, ~16 edges per vertex before duplicate merging. */
constexpr int kScale = 15;
constexpr Index kEdgeFactor = 16;

PageRankOptions
rankOptions()
{
    PageRankOptions o;
    o.tolerance = 1e-8;
    return o;
}

struct Job
{
    double setupS = 0.0;
    double runS = 0.0;
    GraphResult rank;
    GraphResult bfs;
    Modeled modeled;
};

Job
facadeJob(const CsrMatrix &adj, Index source)
{
    Job job;
    double t0 = nowS();
    Accelerator acc;
    acc.loadGraph(adj);
    double t1 = nowS();
    job.rank = acc.pagerank(rankOptions());
    job.bfs = acc.bfs(source);
    double t2 = nowS();
    job.setupS = t1 - t0;
    job.runS = t2 - t1;
    job.modeled.add(acc.engine());
    return job;
}

/**
 * The same job with a span around every layer call.  loadGraph,
 * pagerank and bfs are spelled out with the engine calls they make
 * (frontier-driven BFS rounds, as the default AccelParams select), so
 * each round is timed on its own.
 */
Job
tracedJob(Tracer &tr, const CsrMatrix &adj, Index source, Layers &layers)
{
    Job job;
    const AccelParams params;
    Engine eng(params);
    std::unique_ptr<LocallyDenseMatrix> ld;
    std::unique_ptr<ConfigTable> bfsT, ssspT, prT, spmvT;
    std::vector<Index> outdeg;
    {
        Scope setup(tr, "setup");
        CsrMatrix adjT;
        {
            Scope s(tr, "sparse.transpose");
            outdeg = outDegrees(adj);
            adjT = adj.transposed();
        }
        {
            Scope s(tr, "format.encode");
            ld = std::make_unique<LocallyDenseMatrix>(
                LocallyDenseMatrix::encode(adjT, params.omega,
                                           LdLayout::Plain));
        }
        auto convert = [&](KernelType k) {
            Scope s(tr, "config_table.convert");
            return std::make_unique<ConfigTable>(
                ConfigTable::convert(k, *ld, true, GsSweep::Forward));
        };
        bfsT = convert(KernelType::BFS);
        ssspT = convert(KernelType::SSSP);
        prT = convert(KernelType::PageRank);
        spmvT = convert(KernelType::SpMV);
    }

    const Index n = ld->rows();
    const PageRankOptions opts = rankOptions();
    double runStart = tr.nowUs();
    {
        Scope run(tr, "run");
        eng.program(ld.get(), prT.get());
        job.rank.values.assign(n, 1.0 / double(n));
        for (int it = 0; it < opts.maxIterations; ++it) {
            DenseVector sums;
            {
                Scope s(tr, "engine.pr_round");
                sums = eng.runPrRound(job.rank.values, outdeg);
            }
            Value dangling = 0.0;
            for (Index v = 0; v < n; ++v)
                if (outdeg[v] == 0)
                    dangling += job.rank.values[v];
            Value base = (1.0 - opts.damping) / Value(n) +
                         opts.damping * dangling / Value(n);
            Value delta = 0.0;
            for (Index v = 0; v < n; ++v) {
                Value nv = base + opts.damping * sums[v];
                delta += std::abs(nv - job.rank.values[v]);
                job.rank.values[v] = nv;
            }
            ++job.rank.rounds;
            if (delta < opts.tolerance)
                break;
        }

        eng.program(ld.get(), bfsT.get());
        const Index omega = params.omega;
        const Index chunks = (n + omega - 1) / omega;
        job.bfs.values.assign(n, kInf);
        job.bfs.values[source] = 0.0;
        std::vector<uint8_t> active(chunks, 0);
        active[source / omega] = 1;
        bool any = true;
        while (any) {
            DenseVector next;
            {
                Scope s(tr, "engine.bfs_round");
                next = eng.runRelaxRound(job.bfs.values, active);
            }
            ++job.bfs.rounds;
            std::vector<uint8_t> nextActive(chunks, 0);
            any = false;
            for (Index v = 0; v < n; ++v) {
                if (next[v] != job.bfs.values[v]) {
                    nextActive[v / omega] = 1;
                    any = true;
                }
            }
            job.bfs.values = std::move(next);
            active = std::move(nextActive);
        }
    }
    job.runS = (tr.nowUs() - runStart) * 1e-6;
    job.modeled.add(eng);

    {
        Scope s(tr, "kernels.golden");
        pagerank(adj, opts);
        bfsReference(adj, source);
    }

    layers.compiles = double(eng.scheduleCompiles());
    layers.hits = double(eng.scheduleHits());
    layers.formatBytes = double(residentBytes(*ld));
    layers.tableBytes =
        double(residentBytes(*bfsT) + residentBytes(*ssspT) +
               residentBytes(*prT) + residentBytes(*spmvT));
    layers.fillRatio = double(ld->scalarNnz()) / double(ld->stream().size());
    return job;
}

/** Golden results a job must reproduce. */
struct Golden
{
    DenseVector rank;
    DenseVector dist;
};

void
checkJob(Outcome &out, const Job &job, const Golden &g)
{
    // Both PageRanks stop once a round moves the ranks by less than the
    // tolerance (L1), so they may differ by at most about that much.
    double l1 = 0.0;
    for (size_t v = 0; v < g.rank.size(); ++v)
        l1 += std::abs(job.rank.values[v] - g.rank[v]);
    char what[128];
    std::snprintf(what, sizeof(what),
                  "pagerank: L1 distance %.3e from the golden ranks", l1);
    out.check(job.rank.values.size() == g.rank.size() &&
                  l1 <= rankOptions().tolerance,
              what);
    out.check(job.bfs.values == g.dist,
              "bfs: distances differ from the golden BFS");
}

/** A seeded source with out-edges, so BFS reaches past itself. */
Index
pickSource(const CsrMatrix &adj, uint64_t seed)
{
    Rng rng(seed);
    for (;;) {
        Index v = Index(rng.nextRange(adj.rows()));
        if (adj.rowNnz(v) > 0)
            return v;
    }
}

} // namespace

Outcome
runKronGraph(const Options &opt, Tracer &tr)
{
    Outcome out;
    Rng rng(subSeed(opt.seed, 1));
    const CsrMatrix adj = gen::rmat(kScale, kEdgeFactor, rng);
    const Index source = pickSource(adj, subSeed(opt.seed, 2));
    std::printf("input_digest %016llx\n",
                (unsigned long long)digest(adj.vals()) ^ source);
    std::printf("graph vertices=%u edges=%u source=%u\n", adj.rows(),
                adj.nnz(), source);
    Golden golden{pagerank(adj, rankOptions()), bfsReference(adj, source)};

    EndToEnd e2e;
    Layers layers;
    std::vector<double> tracedRunS;
    Modeled first;
    uint64_t outDigest = 0;
    double start = nowS();
    for (int jobId = 0; runJob(opt, jobId, start); ++jobId) {
        tr.setRun(jobId);
        Job job = facadeJob(adj, source);
        checkJob(out, job, golden);
        uint64_t d = digest(job.rank.values) ^ digest(job.bfs.values);
        if (jobId == 0) {
            first = job.modeled;
            outDigest = d;
            e2e.firstJobRssMb = peakRssMb();
        }
        out.require(job.modeled == first && d == outDigest,
                    "kron_graph: a repeated job changed its result or "
                    "modeled counters");
        e2e.addJob(job.setupS, job.runS);

        if (opt.trace) {
            Job traced = tracedJob(tr, adj, source, layers);
            checkJob(out, traced, golden);
            out.require(traced.modeled == first &&
                            (digest(traced.rank.values) ^
                             digest(traced.bfs.values)) == outDigest,
                        "kron_graph: traced job differs from the facade job");
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

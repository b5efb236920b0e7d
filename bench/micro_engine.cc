/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: host-side
 * throughput of the engine's kernel runs and of the preprocessing steps
 * (encode + convert), so regressions in the simulator's own speed are
 * visible.  The scheduled kernel runs take the stencil3d edge as their
 * argument (12 and 32, i.e. 1.7k and 33k rows); every run executes on
 * the calling thread:
 *
 *   build/bench/micro_engine --benchmark_filter='Engine(Spmv|Spmm|SymGs)'
 */

#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "alrescha/accelerator.hh"
#include "kernels/spmv.hh"
#include "common/random.hh"
#include "sparse/generators.hh"

namespace {

using namespace alr;

/** The 27-point stencil3d(@p n) matrix, built once per size. */
const CsrMatrix &
stencilMatrix(Index n = 12)
{
    static std::map<Index, CsrMatrix> cache;
    auto it = cache.find(n);
    if (it == cache.end())
        it = cache.emplace(n, gen::stencil3d(n, n, n, 27)).first;
    return it->second;
}

void
BM_EncodeSymGs(benchmark::State &state)
{
    const CsrMatrix &a = stencilMatrix();
    for (auto _ : state) {
        auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
        benchmark::DoNotOptimize(ld.stream().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_EncodeSymGs);

void
BM_ConvertSymGs(benchmark::State &state)
{
    const CsrMatrix &a = stencilMatrix();
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::SymGs);
    for (auto _ : state) {
        auto t = ConfigTable::convert(KernelType::SymGS, ld);
        benchmark::DoNotOptimize(t.entries().data());
    }
    state.SetItemsProcessed(state.iterations() * ld.blocks().size());
}
BENCHMARK(BM_ConvertSymGs);

void
BM_EngineSpmv(benchmark::State &state)
{
    const CsrMatrix &a = stencilMatrix(Index(state.range(0)));
    Accelerator acc;
    acc.loadSpmvOnly(a);
    DenseVector x(a.cols(), 1.0);
    for (auto _ : state) {
        DenseVector y = acc.spmv(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_EngineSpmv)->Arg(12)->Arg(32);

void
BM_EngineSpmm(benchmark::State &state)
{
    const CsrMatrix &a = stencilMatrix(Index(state.range(0)));
    Accelerator acc;
    acc.loadSpmvOnly(a);
    std::vector<DenseVector> xs(4, DenseVector(a.cols(), 1.0));
    for (auto _ : state) {
        std::vector<DenseVector> ys = acc.spmm(xs);
        benchmark::DoNotOptimize(ys.data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() * xs.size());
}
BENCHMARK(BM_EngineSpmm)->Arg(12)->Arg(32);

void
BM_EngineSymGsSweep(benchmark::State &state)
{
    const CsrMatrix &a = stencilMatrix(Index(state.range(0)));
    Accelerator acc;
    acc.loadPde(a);
    DenseVector b(a.rows(), 1.0);
    DenseVector x(a.rows(), 0.0);
    for (auto _ : state) {
        acc.symgsSweep(b, x, GsSweep::Symmetric);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_EngineSymGsSweep)->Arg(12)->Arg(32);

void
BM_ReferenceSpmv(benchmark::State &state)
{
    const CsrMatrix &a = stencilMatrix();
    DenseVector x(a.cols(), 1.0);
    for (auto _ : state) {
        DenseVector y = spmv(a, x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_ReferenceSpmv);

void
BM_EngineGraphRound(benchmark::State &state)
{
    Rng rng(1);
    CsrMatrix g = gen::rmat(10, 8, rng);
    Accelerator acc;
    acc.loadGraph(g);
    acc.bfs(0); // program + warm
    DenseVector dist(g.rows(), kInf);
    dist[0] = 0.0;
    for (auto _ : state) {
        DenseVector next = acc.engine().runRelaxRound(dist);
        benchmark::DoNotOptimize(next.data());
    }
    state.SetItemsProcessed(state.iterations() * g.nnz());
}
BENCHMARK(BM_EngineGraphRound);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * alr_perfbench: runs one named workload and reports its metrics.
 *
 *   alr_perfbench --workload pde_cold|kron_graph|serve_restart
 *                 --seed N --seconds S --trace 0|1
 *                 [--work-dir DIR] [--result FILE] [--spans FILE]
 *
 * Prints one "name value unit" line per metric, writes the result
 * document ({correct, attempted, failed, metrics}) to --result, and in a
 * traced run the spans as Chrome-trace JSON to --spans.  Exits 0 only
 * when every output check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/json.hh"
#include "common/metrics.hh"
#include "workloads.hh"

using namespace perfbench;
namespace json = alr::json;

namespace perfbench {

void
EndToEnd::addJob(double setup_s, double run_s)
{
    setupS.push_back(setup_s);
    runS.push_back(run_s);
    latencyMs.push_back((setup_s + run_s) * 1e3);
    requestWallS += setup_s + run_s;
    ++requests;
}

void
EndToEnd::report(Outcome &out) const
{
    out.add("setup_s", median(setupS), "s");
    out.add("run_s", median(runS), "s");
    out.add("requests_per_s",
            requestWallS > 0.0 ? double(requests) / requestWallS : 0.0,
            "1/s");
    out.add("p50_ms", alr::metrics::exactPercentile(latencyMs, 50.0), "ms");
    out.add("p99_ms", alr::metrics::exactPercentile(latencyMs, 99.0), "ms");
    out.add("peak_rss_mb", firstJobRssMb, "MB");
    out.add("modeled_cycles", double(modeledCycles), "cycles");
    std::printf("latency_samples %zu\n", latencyMs.size());
    for (size_t j = 0; j < setupS.size(); ++j)
        std::printf("job %zu setup_s %.6f run_s %.6f\n", j, setupS[j],
                    runS[j]);
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "alr_perfbench: %s\n"
                 "usage: alr_perfbench --workload "
                 "pde_cold|kron_graph|serve_restart --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--result FILE] "
                 "[--spans FILE]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = val;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (end == val.c_str() || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0' || !(opt.seconds >= 0.0))
                usage("--seconds takes a non-negative number");
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            opt.trace = val == "1";
        } else if (flag == "--work-dir") {
            opt.workDir = val;
        } else if (flag == "--result") {
            opt.resultPath = val;
        } else if (flag == "--spans") {
            opt.spansPath = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

void
writeJson(const std::string &path, const json::Value &doc)
{
    std::ofstream os(path);
    json::dump(os, doc);
    os << "\n";
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    try {
        std::filesystem::create_directories(opt.workDir);
        Tracer tr(opt.workload);
        Outcome out;
        if (opt.workload == "pde_cold")
            out = runPdeCold(opt, tr);
        else if (opt.workload == "kron_graph")
            out = runKronGraph(opt, tr);
        else if (opt.workload == "serve_restart")
            out = runServeRestart(opt, tr);
        else
            usage(("unknown workload " + opt.workload).c_str());

        json::Value metrics = json::Value::object();
        for (const Outcome::Metric &m : out.metrics) {
            std::printf("%s %.9g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            json::Value v = json::Value::object();
            v.set("value", json::Value(m.value));
            v.set("unit", json::Value(m.unit));
            metrics.set(m.name, std::move(v));
        }
        std::printf("failed_frac %.9g ratio (%llu of %llu operations)\n",
                    out.attempted ? double(out.failed) / double(out.attempted)
                                  : 0.0,
                    (unsigned long long)out.failed,
                    (unsigned long long)out.attempted);
        if (opt.trace) {
            std::printf("%s", tr.summary().c_str());
            if (!opt.spansPath.empty())
                writeJson(opt.spansPath, tr.chromeTrace());
        }
        std::fflush(stdout);

        if (!opt.resultPath.empty()) {
            json::Value doc = json::Value::object();
            doc.set("correct", json::Value(out.correct));
            doc.set("attempted", json::Value(int64_t(out.attempted)));
            doc.set("failed", json::Value(int64_t(out.failed)));
            doc.set("metrics", std::move(metrics));
            writeJson(opt.resultPath, doc);
        }
        return out.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "alr_perfbench: %s\n", e.what());
        return 2;
    }
}

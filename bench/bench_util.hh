/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: markdown table
 * printing, geometric means, and the standard Alrescha measurement
 * wrappers used by several benches.
 */

#ifndef ALR_BENCH_BENCH_UTIL_HH
#define ALR_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "common/version.hh"
#include "datasets/suites.hh"

namespace alr::bench {

/** Simple left-aligned markdown-style table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : _headers(std::move(headers))
    {
    }

    void addRow(std::vector<std::string> cells)
    {
        _rows.push_back(std::move(cells));
    }

    void
    print() const
    {
        auto line = [&](const std::vector<std::string> &cells) {
            std::printf("|");
            for (size_t i = 0; i < _headers.size(); ++i) {
                const std::string &c = i < cells.size() ? cells[i] : "";
                std::printf(" %-*s |", int(width(i)), c.c_str());
            }
            std::printf("\n");
        };
        line(_headers);
        std::printf("|");
        for (size_t i = 0; i < _headers.size(); ++i)
            std::printf("%s|", std::string(width(i) + 2, '-').c_str());
        std::printf("\n");
        for (const auto &row : _rows)
            line(row);
    }

  private:
    size_t
    width(size_t col) const
    {
        size_t w = _headers[col].size();
        for (const auto &row : _rows) {
            if (col < row.size())
                w = std::max(w, row[col].size());
        }
        return w;
    }

    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

inline std::string
fmt(double v, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string
fmtSci(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

inline double
geoMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / double(xs.size()));
}

/** Milliseconds elapsed since @p start (host wall clock). */
inline double
wallMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Shortest round-trippable representation of a finite double. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Minimal insertion-ordered JSON builder for the machine-readable bench
 * result files (BENCH_*.json).  Members serialize in the order they were
 * added; nested objects/arrays nest via raw().  Not a parser, not
 * general purpose -- just enough structure for the CI perf-smoke job to
 * json.load the output.
 */
class JsonObject
{
  public:
    JsonObject &raw(const std::string &key, std::string json)
    {
        _members.emplace_back(key, std::move(json));
        return *this;
    }

    JsonObject &add(const std::string &key, const std::string &v)
    {
        // Appended piecewise ("\"" + std::string trips a GCC 12
        // -Wrestrict false positive at -O2; so do the closers below).
        std::string quoted = "\"";
        quoted += jsonEscape(v);
        quoted += '"';
        return raw(key, std::move(quoted));
    }
    JsonObject &add(const std::string &key, const char *v)
    {
        return add(key, std::string(v));
    }
    JsonObject &add(const std::string &key, double v)
    {
        return raw(key, jsonNumber(v));
    }
    JsonObject &add(const std::string &key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonObject &add(const std::string &key, int v)
    {
        return raw(key, std::to_string(v));
    }

    bool has(const std::string &key) const
    {
        for (const auto &[k, v] : _members)
            if (k == key)
                return true;
        return false;
    }

    /** Insert a member at the front (schema_version stamping). */
    JsonObject &prepend(const std::string &key, int v)
    {
        _members.emplace(_members.begin(), key, std::to_string(v));
        return *this;
    }

    std::string
    dump(int indent = 0) const
    {
        std::string pad(size_t(indent) + 2, ' ');
        std::string out = "{";
        for (size_t i = 0; i < _members.size(); ++i) {
            out += i ? ",\n" : "\n";
            out += pad + "\"" + jsonEscape(_members[i].first) +
                   "\": " + _members[i].second;
        }
        out += '\n';
        out.append(size_t(indent), ' ');
        out += '}';
        return out;
    }

  private:
    std::vector<std::pair<std::string, std::string>> _members;
};

/** Array counterpart: holds pre-serialized element values. */
class JsonArray
{
  public:
    JsonArray &raw(std::string json)
    {
        _elems.push_back(std::move(json));
        return *this;
    }
    JsonArray &add(const JsonObject &obj, int indent = 0)
    {
        return raw(obj.dump(indent + 2));
    }

    std::string
    dump(int indent = 0) const
    {
        if (_elems.empty())
            return "[]";
        std::string pad(size_t(indent) + 2, ' ');
        std::string out = "[";
        for (size_t i = 0; i < _elems.size(); ++i) {
            out += i ? ",\n" : "\n";
            out += pad + _elems[i];
        }
        out += '\n';
        out.append(size_t(indent), ' ');
        out += ']';
        return out;
    }

  private:
    std::vector<std::string> _elems;
};

/** Write @p root to @p path (with trailing newline); prints the path so
 *  bench logs show where the machine-readable copy landed.  Every BENCH
 *  artifact is stamped with the repo-wide schema_version (prepended
 *  here so individual benches cannot forget it). */
inline bool
writeJsonFile(const std::string &path, const JsonObject &root)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return false;
    }
    if (root.has("schema_version")) {
        out << root.dump() << "\n";
    } else {
        JsonObject stamped = root;
        stamped.prepend("schema_version", version::kJsonSchemaVersion);
        out << stamped.dump() << "\n";
    }
    std::printf("wrote %s\n", path.c_str());
    return bool(out);
}

/**
 * Modeled-counter sub-object for BENCH_*.json rows: deterministic
 * functions of the simulated configuration, so the regression guard
 * (tools/bench_compare.py) diffs them exactly, like cycles and
 * bytes_streamed.
 */
inline JsonObject
modeledStats(const Accelerator &acc)
{
    const Engine &e = acc.engine();
    JsonObject s;
    s.add("alu_ops", e.fcu().aluOps())
        .add("reduce_ops", e.fcu().reduceOps())
        .add("cache_hits", e.rcu().cache().hits())
        .add("cache_misses", e.rcu().cache().misses())
        .add("reconfigurations", e.rcu().reconfigurations())
        .add("reconfig_stall_cycles", e.rcu().reconfigStallCycles())
        .add("reconfig_hidden_frac", e.rcu().reconfigHiddenFraction())
        .add("seq_flops", e.seqFlops())
        .add("par_flops", e.parFlops());
    return s;
}

/** Alrescha seconds for one PCG iteration (symmetric sweep + SpMV). */
inline double
alreschaPcgIterationSeconds(const CsrMatrix &a, Accelerator &acc)
{
    acc.loadPde(a);
    acc.resetStats();
    DenseVector b(a.rows(), 1.0);
    DenseVector x(a.rows(), 0.0);
    acc.symgsSweep(b, x, GsSweep::Symmetric);
    acc.spmv(x);
    return acc.engine().seconds();
}

/** Alrescha seconds for one SpMV. */
inline double
alreschaSpmvSeconds(const CsrMatrix &a, Accelerator &acc)
{
    acc.loadSpmvOnly(a);
    acc.resetStats();
    DenseVector x(a.cols(), 1.0);
    acc.spmv(x);
    return acc.engine().seconds();
}

} // namespace alr::bench

#endif // ALR_BENCH_BENCH_UTIL_HH

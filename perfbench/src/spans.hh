/**
 * @file
 * The traced run's span recorder.  The benchmark wraps every call it
 * makes into a layer's public functions in a span (name, start, end,
 * parent, job id), keeps the spans in memory, derives the per-layer
 * metrics from them -- totals, per-call medians, self time -- and at
 * exit writes them as Chrome-trace JSON, optionally merged with the
 * program's own timeline so both load in one view.
 *
 * Spans are recorded from the benchmark's single driving thread; the
 * recorder is not thread-safe and need not be.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/timeline.hh"

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = -1.0; ///< < startUs while the span is open
        int64_t parent = -1; ///< index of the enclosing span, or -1
        int run = 0;         ///< job id within the workload run

        double durUs() const { return endUs - startUs; }
    };

    explicit Tracer(std::string workload);

    /** Job id stamped on spans begun from now on. */
    void setRun(int run) { _run = run; }

    /** Open a span nested in the innermost open one; returns its id. */
    size_t begin(const std::string &name);
    /** Close span @p id (must be the innermost open span). */
    void end(size_t id);

    /** Microseconds since the recorder was built. */
    double nowUs() const;

    const std::vector<Span> &spans() const { return _spans; }

    /** Duration minus the time covered by direct children, per span. */
    std::vector<double> selfUs() const;

    /** Median over jobs of the summed duration (or self time) of the
     *  spans named @p name, seconds; 0 when there are none. */
    double perRunS(const std::string &name, bool self = false) const;
    /** Median duration of one @p name span, ms; 0 when there are none. */
    double medianMs(const std::string &name) const;

    /** Per-name call count, total and self time, one line each. */
    std::string summary() const;

    /**
     * Keep the wall-clock events of the program's own timeline for the
     * exported trace.  @p offset_us is this recorder's clock reading
     * when that timeline was enabled, so both line up in one view.
     */
    void addProgramEvents(const std::vector<alr::timeline::Event> &events,
                          double offset_us);

    /** Chrome trace-event document: the spans (pid 100, "perfbench")
     *  followed by the program's events. */
    alr::json::Value chromeTrace() const;

  private:
    std::string _workload;
    int _run = 0;
    double _epochS = 0.0;
    std::vector<Span> _spans;
    std::vector<size_t> _open;
    /** Program events with their timestamps on this recorder's clock. */
    std::vector<std::pair<alr::timeline::Event, double>> _program;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name) : _t(t), _id(t.begin(name)) {}
    ~Scope() { _t.end(_id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &_t;
    size_t _id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

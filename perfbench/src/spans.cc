#include "spans.hh"

#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "util.hh"

namespace perfbench {

namespace json = alr::json;

constexpr int64_t kPid = 100;

Tracer::Tracer(std::string workload)
    : _workload(std::move(workload)), _epochS(nowS())
{
}

double
Tracer::nowUs() const
{
    return (nowS() - _epochS) * 1e6;
}

size_t
Tracer::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = _open.empty() ? -1 : int64_t(_open.back());
    s.run = _run;
    s.startUs = nowUs();
    _spans.push_back(std::move(s));
    _open.push_back(_spans.size() - 1);
    return _spans.size() - 1;
}

void
Tracer::end(size_t id)
{
    double t = nowUs();
    ALR_ASSERT(!_open.empty() && _open.back() == id,
               "span %zu closed out of order", id);
    _spans[id].endUs = t;
    _open.pop_back();
}

std::vector<double>
Tracer::selfUs() const
{
    std::vector<double> self(_spans.size());
    for (size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].durUs();
    for (const Span &s : _spans)
        if (s.parent >= 0)
            self[size_t(s.parent)] -= s.durUs();
    return self;
}

double
Tracer::perRunS(const std::string &name, bool self) const
{
    std::vector<double> selfTimes = self ? selfUs() : std::vector<double>{};
    std::map<int, double> perRun;
    for (size_t i = 0; i < _spans.size(); ++i)
        if (_spans[i].name == name)
            perRun[_spans[i].run] +=
                self ? selfTimes[i] : _spans[i].durUs();
    std::vector<double> totals;
    for (const auto &[run, us] : perRun)
        totals.push_back(us * 1e-6);
    return median(std::move(totals));
}

double
Tracer::medianMs(const std::string &name) const
{
    std::vector<double> durs;
    for (const Span &s : _spans)
        if (s.name == name)
            durs.push_back(s.durUs() * 1e-3);
    return median(std::move(durs));
}

std::string
Tracer::summary() const
{
    struct Row
    {
        size_t calls = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
    };
    std::map<std::string, Row> rows;
    std::vector<double> self = selfUs();
    for (size_t i = 0; i < _spans.size(); ++i) {
        Row &r = rows[_spans[i].name];
        ++r.calls;
        r.totalUs += _spans[i].durUs();
        r.selfUs += self[i];
    }
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s\n", "span",
                  "calls", "total_s", "self_s");
    out += line;
    for (const auto &[name, r] : rows) {
        std::snprintf(line, sizeof(line), "%-28s %8zu %12.6f %12.6f\n",
                      name.c_str(), r.calls, r.totalUs * 1e-6,
                      r.selfUs * 1e-6);
        out += line;
    }
    return out;
}

namespace {

json::Value
metaEvent(int64_t pid, const char *what, const char *name)
{
    json::Value ev = json::Value::object();
    ev.set("ph", json::Value(std::string("M")));
    ev.set("pid", json::Value(pid));
    ev.set("tid", json::Value(int64_t(0)));
    ev.set("name", json::Value(std::string(what)));
    json::Value args = json::Value::object();
    args.set("name", json::Value(std::string(name)));
    ev.set("args", std::move(args));
    return ev;
}

} // namespace

void
Tracer::addProgramEvents(const std::vector<alr::timeline::Event> &events,
                         double offset_us)
{
    for (const alr::timeline::Event &e : events)
        // Only the wall-clock processes share this recorder's clock.
        if (e.pid != alr::timeline::kPidModeled)
            _program.emplace_back(e, double(e.ts) + offset_us);
}

json::Value
Tracer::chromeTrace() const
{
    json::Value events = json::Value::array();
    events.append(metaEvent(kPid, "process_name", "perfbench"));
    std::vector<double> self = selfUs();
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        json::Value ev = json::Value::object();
        ev.set("ph", json::Value(std::string("X")));
        ev.set("pid", json::Value(kPid));
        ev.set("tid", json::Value(int64_t(1)));
        ev.set("ts", json::Value(s.startUs));
        ev.set("dur", json::Value(s.durUs()));
        ev.set("name", json::Value(s.name));
        ev.set("cat", json::Value(std::string("perfbench")));
        json::Value args = json::Value::object();
        args.set("workload", json::Value(_workload));
        args.set("run", json::Value(int64_t(s.run)));
        args.set("id", json::Value(int64_t(i)));
        args.set("parent", json::Value(s.parent));
        args.set("self_us", json::Value(self[i]));
        ev.set("args", std::move(args));
        events.append(std::move(ev));
    }

    using alr::timeline::Event;
    if (!_program.empty()) {
        events.append(metaEvent(alr::timeline::kPidHost, "process_name",
                                "host (wall clock)"));
        events.append(metaEvent(alr::timeline::kPidServe, "process_name",
                                "serve (request plane, wall clock)"));
    }
    for (const auto &[e, tsUs] : _program) {
        json::Value ev = json::Value::object();
        ev.set("ph", json::Value(std::string(
                         e.kind == Event::Kind::Span      ? "X"
                         : e.kind == Event::Kind::Counter ? "C"
                                                          : "i")));
        ev.set("pid", json::Value(int64_t(e.pid)));
        ev.set("tid", json::Value(int64_t(e.tid)));
        ev.set("ts", json::Value(tsUs));
        if (e.kind == Event::Kind::Span)
            ev.set("dur", json::Value(int64_t(e.dur)));
        ev.set("name", json::Value(std::string(e.name ? e.name : "?")));
        ev.set("cat", json::Value(std::string(e.cat ? e.cat : "event")));
        if (e.kind == Event::Kind::Counter) {
            json::Value args = json::Value::object();
            args.set("value", json::Value(e.value));
            ev.set("args", std::move(args));
        }
        events.append(std::move(ev));
    }

    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", json::Value(std::string("ms")));
    return doc;
}

} // namespace perfbench

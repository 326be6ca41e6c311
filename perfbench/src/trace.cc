/**
 * @file
 * Span log, self-time accounting and the timing decorators.
 */

#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "metrics.hh"

namespace perfbench
{

namespace
{

/** Adds the lifetime of one scope to a HookTime. */
class ScopedTime
{
  public:
    explicit ScopedTime(HookTime &time) : time_(time), start_(nowNs()) {}
    ~ScopedTime()
    {
        time_.ns += nowNs() - start_;
        ++time_.calls;
    }
    ScopedTime(const ScopedTime &) = delete;
    ScopedTime &operator=(const ScopedTime &) = delete;

  private:
    HookTime &time_;
    std::int64_t start_;
};

} // namespace

double
clockPairNs()
{
    constexpr int kPairs = 100000;
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
        HookTime sink;
        const std::int64_t start = nowNs();
        for (int i = 0; i < kPairs; ++i) {
            const ScopedTime timed(sink);
        }
        reps.push_back(static_cast<double>(nowNs() - start) / kPairs);
    }
    return median(reps);
}

std::int64_t
SpanLog::add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
             std::int64_t parent, std::uint64_t request)
{
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t
SpanLog::open(const char *name, std::int64_t parent, std::uint64_t request)
{
    const std::int64_t now = nowNs();
    return add(name, now, now, parent, request);
}

void
SpanLog::close(std::int64_t index)
{
    const std::int64_t now = nowNs();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(index)).end_ns = now;
}

std::vector<Span>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
SpanLog::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::int64_t origin = 0;
    for (const Span &s : all) {
        origin = origin == 0 ? s.start_ns : std::min(origin, s.start_ns);
    }
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"start_ns\": " << s.start_ns - origin
            << ", \"end_ns\": " << s.end_ns - origin
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) {
        throw std::runtime_error("cannot write span log " + path);
    }
}

std::map<std::string, double>
selfTimeNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
            children[static_cast<std::size_t>(p)].push_back(i);
        }
    }
    std::map<std::string, double> self;
    std::vector<std::pair<std::int64_t, std::int64_t>> ivals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        ivals.clear();
        for (std::size_t c : children[i]) {
            const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
            const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
            if (hi > lo) {
                ivals.emplace_back(lo, hi);
            }
        }
        std::sort(ivals.begin(), ivals.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (const auto &[lo, hi] : ivals) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
    }
    return self;
}

mopac::TraceRecord
TimedTraceSource::next()
{
    const ScopedTime timed(time_);
    return inner_.next();
}

void
TimedTraceSource::saveState(mopac::Serializer &ser) const
{
    inner_.saveState(ser);
}

void
TimedTraceSource::loadState(mopac::Deserializer &des)
{
    inner_.loadState(des);
}

const char *
hookName(std::size_t hook)
{
    static constexpr std::array<const char *, kNumHooks> kNames = {
        "name",        "selectForUpdate", "onActivate",
        "onPrechargeUpdate", "onPrecharge", "onRefreshSweep",
        "onRefresh",   "onRfm",           "onNeighborRefresh",
        "engineStats", "saveState",       "loadState",
    };
    return kNames.at(hook);
}

#define PERFBENCH_TIMED(hook)                                               \
    const ScopedTime timed(times_[static_cast<std::size_t>(Hook::hook)])

std::string
TimedMitigator::name() const
{
    PERFBENCH_TIMED(kName);
    return inner_.name();
}

bool
TimedMitigator::selectForUpdate(unsigned bank, std::uint32_t row,
                                mopac::Cycle now)
{
    PERFBENCH_TIMED(kSelectForUpdate);
    return inner_.selectForUpdate(bank, row, now);
}

void
TimedMitigator::onActivate(unsigned bank, std::uint32_t row,
                           mopac::Cycle now)
{
    PERFBENCH_TIMED(kOnActivate);
    inner_.onActivate(bank, row, now);
}

void
TimedMitigator::onPrechargeUpdate(unsigned bank, std::uint32_t row,
                                  mopac::Cycle now)
{
    PERFBENCH_TIMED(kOnPrechargeUpdate);
    inner_.onPrechargeUpdate(bank, row, now);
}

void
TimedMitigator::onPrecharge(unsigned bank, std::uint32_t row,
                            mopac::Cycle now, mopac::Cycle open_cycles)
{
    PERFBENCH_TIMED(kOnPrecharge);
    inner_.onPrecharge(bank, row, now, open_cycles);
}

void
TimedMitigator::onRefreshSweep(std::uint32_t row_begin,
                               std::uint32_t row_end)
{
    PERFBENCH_TIMED(kOnRefreshSweep);
    inner_.onRefreshSweep(row_begin, row_end);
}

void
TimedMitigator::onRefresh(mopac::Cycle now)
{
    PERFBENCH_TIMED(kOnRefresh);
    inner_.onRefresh(now);
}

void
TimedMitigator::onRfm(mopac::Cycle now)
{
    PERFBENCH_TIMED(kOnRfm);
    inner_.onRfm(now);
}

void
TimedMitigator::onNeighborRefresh(unsigned bank, std::uint32_t row,
                                  unsigned chip)
{
    PERFBENCH_TIMED(kOnNeighborRefresh);
    inner_.onNeighborRefresh(bank, row, chip);
}

const mopac::EngineStats &
TimedMitigator::engineStats() const
{
    PERFBENCH_TIMED(kEngineStats);
    return inner_.engineStats();
}

void
TimedMitigator::saveState(mopac::Serializer &ser) const
{
    PERFBENCH_TIMED(kSaveState);
    inner_.saveState(ser);
}

void
TimedMitigator::loadState(mopac::Deserializer &des)
{
    PERFBENCH_TIMED(kLoadState);
    inner_.loadState(des);
}

#undef PERFBENCH_TIMED

std::int64_t
TimedMitigator::totalNs() const
{
    std::int64_t total = 0;
    for (const HookTime &t : times_) {
        total += t.ns;
    }
    return total;
}

} // namespace perfbench

/**
 * @file
 * Outside-in tracing for the repository benchmark.
 *
 * Spans are recorded by the benchmark's own code around its calls
 * into the simulator, kept in memory, and written out when the run
 * ends.  The two decorators time the calls the simulator makes into
 * the workload (TraceSource::next) and mitigation (every Mitigator
 * virtual) layers.  Those calls are far too frequent to keep one span
 * each, so the decorators only count calls and sum their time; the
 * benchmark turns each runTo chunk's sums into one span per layer.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/wallclock.hh"
#include "core/trace.hh"
#include "dram/mitigator.hh"

namespace perfbench
{

/** Nanoseconds since an arbitrary fixed origin (steady clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               mopac::wallclock::now().time_since_epoch())
        .count();
}

/** Host cost of one timed empty region (two clock reads), ns. */
double clockPairNs();

/** One recorded span.  @c name must be a string literal. */
struct Span
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the parent span in the log, -1 for a root. */
    std::int64_t parent = -1;
    /** Request id: the point id for per-point spans, else 0. */
    std::uint64_t request = 0;
};

/** Thread-safe in-memory span log. */
class SpanLog
{
  public:
    /** Append a finished span; returns its index (a parent handle). */
    std::int64_t add(const char *name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t parent = -1,
                     std::uint64_t request = 0);

    /** Open a span ending at the matching close(). */
    std::int64_t open(const char *name, std::int64_t parent = -1,
                      std::uint64_t request = 0);
    void close(std::int64_t index);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write the spans as a JSON array (times relative to the first). */
    void write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Self time per span name, ns: each span's duration minus the length
 * of the union of its children's intervals (clipped to the span), so
 * children that overlap each other -- concurrent points under one
 * sweep -- are not subtracted twice.
 */
std::map<std::string, double> selfTimeNs(const std::vector<Span> &spans);

/** Calls and summed time of one decorated entry point. */
struct HookTime
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
};

/** Times every next() of the wrapped trace source. */
class TimedTraceSource : public mopac::TraceSource
{
  public:
    explicit TimedTraceSource(mopac::TraceSource &inner) : inner_(inner) {}

    mopac::TraceRecord next() override;
    void saveState(mopac::Serializer &ser) const override;
    void loadState(mopac::Deserializer &des) override;

    const HookTime &time() const { return time_; }

  private:
    mopac::TraceSource &inner_;
    HookTime time_;
};

/** Every Mitigator virtual, in declaration order. */
enum class Hook : unsigned
{
    kName,
    kSelectForUpdate,
    kOnActivate,
    kOnPrechargeUpdate,
    kOnPrecharge,
    kOnRefreshSweep,
    kOnRefresh,
    kOnRfm,
    kOnNeighborRefresh,
    kEngineStats,
    kSaveState,
    kLoadState,
    kCount,
};

inline constexpr std::size_t kNumHooks =
    static_cast<std::size_t>(Hook::kCount);

/** Method name of @p hook, as used in metric names. */
const char *hookName(std::size_t hook);

/**
 * Forwards every Mitigator virtual to the wrapped engine and times
 * it.  Installed with SubChannel::setMitigator around
 * System::engine(i), so the device and controller call through it
 * while the System keeps reading statistics from the engine itself.
 */
class TimedMitigator : public mopac::Mitigator
{
  public:
    explicit TimedMitigator(mopac::Mitigator &inner) : inner_(inner) {}

    std::string name() const override;
    bool selectForUpdate(unsigned bank, std::uint32_t row,
                         mopac::Cycle now) override;
    void onActivate(unsigned bank, std::uint32_t row,
                    mopac::Cycle now) override;
    void onPrechargeUpdate(unsigned bank, std::uint32_t row,
                           mopac::Cycle now) override;
    void onPrecharge(unsigned bank, std::uint32_t row, mopac::Cycle now,
                     mopac::Cycle open_cycles) override;
    void onRefreshSweep(std::uint32_t row_begin,
                        std::uint32_t row_end) override;
    void onRefresh(mopac::Cycle now) override;
    void onRfm(mopac::Cycle now) override;
    void onNeighborRefresh(unsigned bank, std::uint32_t row,
                           unsigned chip) override;
    const mopac::EngineStats &engineStats() const override;
    void saveState(mopac::Serializer &ser) const override;
    void loadState(mopac::Deserializer &des) override;

    const std::array<HookTime, kNumHooks> &times() const
    {
        return times_;
    }

    /** Time summed over every hook, ns. */
    std::int64_t totalNs() const;

  private:
    mopac::Mitigator &inner_;
    // Const hooks (name, engineStats, saveState) are timed too.
    mutable std::array<HookTime, kNumHooks> times_{};
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH

/**
 * @file
 * Self-tests of the repository benchmark's own machinery.
 * Run: cmake --build <build> --target perfbench_selftest && ctest
 * --test-dir <build> (or execute the perfbench_selftest binary).
 */

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hh"
#include "trace.hh"
#include "workloads.hh"

namespace
{

int failures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                         __LINE__, #cond);                                   \
            ++failures;                                                      \
        }                                                                    \
    } while (0)

template <typename Fn>
bool
throws(Fn fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &) {
        return true;
    }
    return false;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> xs;
    for (int i = n; i >= 1; --i) {
        xs.push_back(i); // Descending: the rule must sort.
    }
    return xs;
}

void
testTailRule()
{
    CHECK(!perfbench::tailPercentile(oneTo(10)));
    const auto t11 = perfbench::tailPercentile(oneTo(11));
    CHECK(t11 && t11->value == 1.0 && t11->samples == 11);
    const auto t50 = perfbench::tailPercentile(oneTo(50));
    CHECK(t50 && t50->value == 40.0 && t50->percentile == 80.0);
    const auto t230 = perfbench::tailPercentile(oneTo(230));
    CHECK(t230 && t230->value == 220.0);
    CHECK(t230 && t230->percentile > 95.65 && t230->percentile < 95.66);
    // Exactly ten samples lie beyond the reported value.
    std::size_t beyond = 0;
    for (double x : oneTo(230)) {
        beyond += x > t230->value ? 1 : 0;
    }
    CHECK(beyond == 10);
    // Pooling three batches of 50 at the single-batch p80 leaves 30
    // samples beyond the value.
    std::vector<double> pooled;
    for (int batch = 0; batch < 3; ++batch) {
        const std::vector<double> xs = oneTo(50);
        pooled.insert(pooled.end(), xs.begin(), xs.end());
    }
    const double v = perfbench::valueAtPercentile(pooled, t50->percentile);
    std::size_t pooled_beyond = 0;
    for (double x : pooled) {
        pooled_beyond += x > v ? 1 : 0;
    }
    CHECK(v == 40.0 && pooled_beyond == 30);
    CHECK(perfbench::valueAtPercentile(oneTo(4), 50.0) == 2.0);
    CHECK(perfbench::valueAtPercentile({}, 50.0) == 0.0);
    CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void
testSelfTime()
{
    using perfbench::Span;
    std::vector<Span> spans = {
        {"root", 0, 100, -1, 0},
        // Overlapping siblings: union [10, 50) is 40, not 20 + 30.
        {"child", 10, 30, 0, 1},
        {"child", 20, 50, 0, 2},
        {"child", 60, 70, 0, 3},
        // Sticks out of the parent: only [90, 100) counts.
        {"late", 90, 120, 0, 4},
        // Nested under the first child.
        {"leaf", 15, 20, 1, 1},
    };
    auto self = perfbench::selfTimeNs(spans);
    CHECK(self["root"] == 100 - (40 + 10 + 10));
    CHECK(self["child"] == (20 - 5) + 30 + 10);
    CHECK(self["leaf"] == 5);
    CHECK(self["late"] == 30);

    perfbench::SpanLog log;
    const auto parent = log.open("p");
    log.add("c", perfbench::nowNs(), perfbench::nowNs(), parent);
    log.close(parent);
    const auto all = log.spans();
    CHECK(all.size() == 2 && all[1].parent == 0);
    CHECK(all[0].end_ns >= all[1].end_ns);
}

/** Records which virtuals reached it. */
class ProbeEngine : public mopac::Mitigator
{
  public:
    // Const virtuals record their calls too.
    mutable std::set<std::string> called;
    mopac::EngineStats stats;

    std::string name() const override
    {
        called.insert("name");
        return "probe";
    }
    bool selectForUpdate(unsigned, std::uint32_t, mopac::Cycle) override
    {
        called.insert("selectForUpdate");
        return true;
    }
    void onActivate(unsigned, std::uint32_t, mopac::Cycle) override
    {
        called.insert("onActivate");
    }
    void onPrechargeUpdate(unsigned, std::uint32_t, mopac::Cycle) override
    {
        called.insert("onPrechargeUpdate");
    }
    void onPrecharge(unsigned, std::uint32_t, mopac::Cycle,
                     mopac::Cycle) override
    {
        called.insert("onPrecharge");
    }
    void onRefreshSweep(std::uint32_t, std::uint32_t) override
    {
        called.insert("onRefreshSweep");
    }
    void onRefresh(mopac::Cycle) override { called.insert("onRefresh"); }
    void onRfm(mopac::Cycle) override { called.insert("onRfm"); }
    void onNeighborRefresh(unsigned, std::uint32_t, unsigned) override
    {
        called.insert("onNeighborRefresh");
    }
    const mopac::EngineStats &engineStats() const override
    {
        called.insert("engineStats");
        return stats;
    }
    void saveState(mopac::Serializer &ser) const override
    {
        called.insert("saveState");
        ser.putU32(7);
    }
    void loadState(mopac::Deserializer &des) override
    {
        called.insert("loadState");
        (void)des.getU32();
    }
};

void
testDecoratorForwarding()
{
    ProbeEngine probe;
    perfbench::TimedMitigator timed(probe);
    CHECK(timed.name() == "probe");
    CHECK(timed.selectForUpdate(0, 1, 2));
    timed.onActivate(0, 1, 2);
    timed.onPrechargeUpdate(0, 1, 2);
    timed.onPrecharge(0, 1, 2, 3);
    timed.onRefreshSweep(0, 8);
    timed.onRefresh(5);
    timed.onRfm(6);
    timed.onNeighborRefresh(0, 1, 0);
    CHECK(&timed.engineStats() == &probe.stats);
    mopac::Serializer ser;
    ser.begin(1);
    timed.saveState(ser);
    ser.end();
    mopac::Deserializer des(ser.finish(mopac::FileKind::kSnapshot, 9),
                            mopac::FileKind::kSnapshot, 9);
    des.begin(1);
    timed.loadState(des);
    des.end();
    CHECK(probe.called.size() == perfbench::kNumHooks);
    for (std::size_t h = 0; h < perfbench::kNumHooks; ++h) {
        CHECK(probe.called.count(perfbench::hookName(h)) == 1);
        CHECK(timed.times()[h].calls == 1);
    }

    // A decorated System must produce the bare System's exact result.
    using K = mopac::MitigationKind;
    for (K kind : {K::kNone, K::kPracMoat, K::kMopacC, K::kMopacD}) {
        CHECK(perfbench::shortPointDigest(kind, true) ==
              perfbench::shortPointDigest(kind, false));
    }
}

void
testMetricNamesAndCaps()
{
    using perfbench::validMetricName;
    CHECK(validMetricName("mitigation.onActivate_ns"));
    CHECK(validMetricName("sim.run.self_ms"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("_leading"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("slash/name"));
    CHECK(!validMetricName(std::string(65, 'a')));
    CHECK(perfbench::validUnit("Macts/s"));
    CHECK(!perfbench::validUnit("m s"));

    std::set<std::string> seen;
    for (const auto *catalog :
         {&perfbench::endToEndCatalog(), &perfbench::perLayerCatalog()}) {
        for (const perfbench::MetricInfo &m : *catalog) {
            CHECK(validMetricName(m.name));
            CHECK(perfbench::validUnit(m.unit));
            CHECK(m.better == "lower" || m.better == "higher");
            CHECK(seen.insert(m.name).second);
        }
    }
    CHECK(perfbench::endToEndCatalog().size() <= perfbench::kMaxEndToEnd);
    CHECK(perfbench::perLayerCatalog().size() <= perfbench::kMaxPerLayer);
    bool has_setup = false;
    for (const perfbench::MetricInfo &m : perfbench::endToEndCatalog()) {
        CHECK(m.bound > 0.0 && m.bound <= 0.25);
        has_setup = has_setup || (m.name == "setup_s" && m.unit == "s" &&
                                  m.better == "lower");
    }
    CHECK(has_setup);

    perfbench::MetricSet set(2);
    set.add("a", "s", 1.0);
    CHECK(throws([&] { set.add("a", "s", 2.0); }));
    set.add("b", "s", 2.0);
    CHECK(throws([&] { set.add("c", "s", 3.0); }));
    CHECK(throws([] { perfbench::MetricSet(4).add("bad name", "s", 1.0); }));
    CHECK(set.toJson() == "{\"a\": {\"value\": 1, \"unit\": \"s\"}, "
                          "\"b\": {\"value\": 2, \"unit\": \"s\"}}");
    CHECK(std::strtod(perfbench::jsonNumber(0.1 + 0.2).c_str(), nullptr) ==
          0.1 + 0.2);
}

} // namespace

int
main()
{
    testTailRule();
    testSelfTime();
    testDecoratorForwarding();
    testMetricNamesAndCaps();
    if (failures == 0) {
        std::puts("perfbench self-tests passed");
    }
    return failures == 0 ? 0 : 1;
}

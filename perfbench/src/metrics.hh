/**
 * @file
 * Statistics and metric bookkeeping of the repository benchmark:
 * medians, the tail-percentile rule, metric-name validation, and the
 * one-line JSON result the benchmark prints last.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Caps on the metric lists (BENCHMARK.json contract). */
inline constexpr std::size_t kMaxEndToEnd = 16;
inline constexpr std::size_t kMaxPerLayer = 128;

/** Median of @p xs (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> xs);

/**
 * The tail of a timing sample: the highest percentile that still has
 * at least ten samples beyond it.  With n samples sorted ascending,
 * that is the value at 0-based rank n - 11 (ten values above it), at
 * percentile 100 * (n - 10) / n.
 */
struct Tail
{
    double percentile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
};

/** Tail of @p xs by the rule above; nullopt with fewer than 11 samples. */
std::optional<Tail> tailPercentile(std::vector<double> xs);

/**
 * Nearest-rank value of @p xs at @p percentile: the smallest sample
 * with at least that share of samples at or below it.  Pooling k
 * batches of n samples at tailPercentile()'s percentile for n leaves
 * 10k samples beyond the value.  0 if empty.
 */
double valueAtPercentile(std::vector<double> xs, double percentile);

/** Metric names use only [A-Za-z0-9_.-], start alphanumeric, <= 64 chars. */
bool validMetricName(const std::string &name);

/** Units use only [A-Za-z0-9_/%.-], <= 16 chars. */
bool validUnit(const std::string &unit);

/** One reported metric value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * The metrics of one run, in report order.  add() rejects invalid or
 * duplicate names and enforces @p cap, so a misnamed metric fails the
 * run instead of silently reaching the result line.
 */
class MetricSet
{
  public:
    explicit MetricSet(std::size_t cap) : cap_(cap) {}

    /** Append a metric; throws std::invalid_argument on a bad entry. */
    void add(const std::string &name, const std::string &unit,
             double value);

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** `{"name": {"value": v, "unit": "u"}, ...}` with full precision. */
    std::string toJson() const;

  private:
    std::size_t cap_;
    std::vector<Metric> metrics_;
};

/** Shortest decimal text that reads back as exactly @p v. */
std::string jsonNumber(double v);

/** @p text as a JSON string literal. */
std::string jsonString(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH

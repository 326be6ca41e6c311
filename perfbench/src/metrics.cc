/**
 * @file
 * Metric bookkeeping implementation.
 */

#include "metrics.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench
{

double
median(std::vector<double> xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::optional<Tail>
tailPercentile(std::vector<double> xs)
{
    constexpr std::size_t kBeyond = 10;
    const std::size_t n = xs.size();
    if (n <= kBeyond) {
        return std::nullopt;
    }
    std::sort(xs.begin(), xs.end());
    Tail tail;
    tail.samples = n;
    tail.value = xs[n - kBeyond - 1];
    tail.percentile = 100.0 * static_cast<double>(n - kBeyond) /
                      static_cast<double>(n);
    return tail;
}

double
valueAtPercentile(std::vector<double> xs, double percentile)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const double rank =
        std::ceil(percentile / 100.0 * static_cast<double>(xs.size()) - 1e-9);
    const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return xs[std::min(index, xs.size() - 1)];
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name.front()))) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16) {
        return false;
    }
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '/' || c == '%' || c == '.' || c == '-';
    });
}

void
MetricSet::add(const std::string &name, const std::string &unit,
               double value)
{
    if (!validMetricName(name)) {
        throw std::invalid_argument("invalid metric name '" + name + "'");
    }
    if (!validUnit(unit)) {
        throw std::invalid_argument("invalid unit '" + unit + "' of " +
                                    name);
    }
    if (!std::isfinite(value)) {
        throw std::invalid_argument("non-finite value for " + name);
    }
    for (const Metric &m : metrics_) {
        if (m.name == name) {
            throw std::invalid_argument("duplicate metric " + name);
        }
    }
    if (metrics_.size() >= cap_) {
        throw std::invalid_argument("metric cap of " +
                                    std::to_string(cap_) +
                                    " exceeded by " + name);
    }
    metrics_.push_back({name, unit, value});
}

std::string
MetricSet::toJson() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[32];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v) {
            break;
        }
    }
    return buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench

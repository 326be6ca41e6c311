/**
 * @file
 * FaultPlan parsing and reporting (the cold half of fault injection;
 * the hooks live inline in faults.hh).
 */

#include "faults.hh"

#include <limits>

#include "common/config.hh"
#include "common/format.hh"
#include "common/log.hh"

namespace mopac
{

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kAlertDrop: return "alert_drop";
      case FaultKind::kAlertDelay: return "alert_delay";
      case FaultKind::kRfmStarve: return "rfm_starve";
      case FaultKind::kAboTruncate: return "abo_truncate";
      case FaultKind::kCounterBitflip: return "counter_bitflip";
      case FaultKind::kCounterSaturate: return "counter_saturate";
      case FaultKind::kCounterReset: return "counter_reset";
      case FaultKind::kMitigationSuppress: return "mitigation_suppress";
      case FaultKind::kStuckOpenBank: return "stuck_bank";
    }
    return "?";
}

bool
parseFaultKind(const std::string &name, FaultKind &out)
{
    for (unsigned k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (name == toString(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

const char *
toString(OutcomeClass outcome)
{
    switch (outcome) {
      case OutcomeClass::kOk: return "OK";
      case OutcomeClass::kDegraded: return "DEGRADED";
      case OutcomeClass::kViolated: return "VIOLATED";
      case OutcomeClass::kHung: return "HUNG";
    }
    return "?";
}

FaultPlan
FaultPlan::single(FaultKind kind, double rate, Cycle duration,
                  unsigned chip)
{
    FaultPlan plan;
    FaultSpec &s = plan.spec(kind);
    s.rate = rate;
    s.duration = duration;
    s.chip = chip;
    return plan;
}

FaultPlan
FaultPlan::fromConfig(const Config &conf)
{
    FaultPlan plan;
    plan.seed = conf.getUint("faults.seed", 0);
    plan.intensity = conf.getDouble("faults.intensity", 1.0);
    if (plan.intensity < 0.0) {
        fatal("faults.intensity must be >= 0, got {}", plan.intensity);
    }

    for (const std::string &key : conf.keys()) {
        if (key.rfind("faults.", 0) != 0) {
            continue;
        }
        if (key == "faults.seed" || key == "faults.intensity") {
            continue;
        }
        std::string body = key.substr(7);
        std::string attr;
        if (const auto dot = body.find('.'); dot != std::string::npos) {
            attr = body.substr(dot + 1);
            body = body.substr(0, dot);
        }
        FaultKind kind;
        if (!parseFaultKind(body, kind)) {
            fatal("unknown fault kind in config key '{}' (kinds: "
                  "alert_drop alert_delay rfm_starve abo_truncate "
                  "counter_bitflip counter_saturate counter_reset "
                  "mitigation_suppress stuck_bank)",
                  key);
        }
        FaultSpec &s = plan.spec(kind);
        if (attr.empty()) {
            s.rate = conf.getDouble(key);
            if (s.rate < 0.0 || s.rate > 1.0) {
                fatal("config key '{}': rate {} outside [0, 1]", key,
                      s.rate);
            }
        } else if (attr == "at") {
            s.at = conf.getUint(key);
        } else if (attr == "cycles") {
            s.duration = conf.getUint(key);
        } else if (attr == "chip") {
            s.chip = static_cast<unsigned>(conf.getUint(
                key, 0, std::numeric_limits<std::uint32_t>::max()));
        } else {
            fatal("unknown fault attribute '{}' in config key '{}' "
                  "(attributes: at, cycles, chip)",
                  attr, key);
        }
    }
    return plan;
}

std::string
FaultPlan::summary() const
{
    std::string out;
    for (unsigned k = 0; k < kNumFaultKinds; ++k) {
        const FaultSpec &s = specs[k];
        if ((s.rate <= 0.0 || intensity <= 0.0) &&
            s.at == kNeverCycle) {
            continue;
        }
        if (!out.empty()) {
            out += ", ";
        }
        out += toString(static_cast<FaultKind>(k));
        if (s.rate > 0.0) {
            out += format(" p={:.4g}", s.rate * intensity);
        }
        if (s.at != kNeverCycle) {
            out += format(" @{}", s.at);
        }
        if (s.duration != 0) {
            out += format(" for {}", s.duration);
        }
        if (s.chip != kFaultAnyChip) {
            out += format(" chip {}", s.chip);
        }
    }
    return out.empty() ? "none" : out;
}

std::string
FaultPlan::signature() const
{
    std::string out = format("fs={} fi={:.6g}", seed, intensity);
    for (unsigned k = 0; k < kNumFaultKinds; ++k) {
        const FaultSpec &s = specs[k];
        out += format("/{}:{}:{}:{}", s.rate, s.at, s.duration, s.chip);
    }
    return out;
}

} // namespace mopac

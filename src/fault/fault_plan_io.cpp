#include "fault/fault_plan_io.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/json_reader.hpp"

namespace occm::fault {

namespace {

constexpr int kPlanFormatVersion = 1;

std::string fmtDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

bool parseKind(const std::string& text, FaultKind* out) {
  for (const FaultKind kind :
       {FaultKind::kControllerOutage, FaultKind::kControllerDegrade,
        FaultKind::kCoreThrottle, FaultKind::kEccSpike,
        FaultKind::kBackgroundTraffic, FaultKind::kCrashAbort,
        FaultKind::kCrashSegv, FaultKind::kCrashOom}) {
    if (text == toString(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

/// Cycles fields travel as JSON numbers; anything negative, non-finite
/// or too large to be a cycle count fails the parse.
bool toCycles(double value, Cycles* out) {
  if (!std::isfinite(value) || value < 0.0 || value > 9.0e18) {
    return false;
  }
  *out = static_cast<Cycles>(value);
  return true;
}

PlanParseError readerError(const JsonReader& reader) {
  PlanParseError err;
  err.byteOffset = reader.errorOffset();
  err.detail = reader.errorDetail();
  err.truncated = reader.truncated();
  return err;
}

/// Replays one parsed event through the FaultPlan builder, converting
/// the builders' ContractViolation into the typed parse error so the
/// builder contracts stay the single source of semantic validation.
bool appendEvent(FaultPlan& plan, const FaultEvent& e, std::string* detail) {
  try {
    switch (e.kind) {
      case FaultKind::kControllerOutage:
        plan.controllerOutage(e.target, e.start, e.end);
        return true;
      case FaultKind::kControllerDegrade:
        plan.controllerDegrade(e.target, e.start, e.end, e.magnitude);
        return true;
      case FaultKind::kCoreThrottle:
        plan.coreThrottle(e.target, e.start, e.end, e.magnitude);
        return true;
      case FaultKind::kEccSpike:
        plan.eccSpike(e.target, e.start, e.end, e.magnitude, e.penaltyCycles);
        return true;
      case FaultKind::kBackgroundTraffic:
        plan.backgroundTraffic(e.target, e.start, e.end, e.period);
        return true;
      case FaultKind::kCrashAbort:
        plan.crashAbort(e.start, e.target);
        return true;
      case FaultKind::kCrashSegv:
        plan.crashSegv(e.start, e.target);
        return true;
      case FaultKind::kCrashOom:
        plan.crashOom(e.start, e.target);
        return true;
    }
    *detail = "unknown fault kind value";
    return false;
  } catch (const ContractViolation& violation) {
    *detail = violation.what();
    return false;
  }
}

}  // namespace

std::string PlanParseError::message() const {
  std::string out = "corrupt fault plan (";
  out += truncated ? "truncated" : "invalid";
  out += ") at byte ";
  out += std::to_string(byteOffset);
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

std::string toJson(const FaultPlan& plan) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": " << kPlanFormatVersion << ",\n";
  out << "  \"events\": [";
  const std::vector<FaultEvent>& events = plan.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"kind\": \"" << toString(e.kind) << "\""
        << ", \"target\": " << e.target << ", \"start\": " << e.start
        << ", \"end\": " << e.end
        << ", \"magnitude\": " << fmtDouble(e.magnitude)
        << ", \"penaltyCycles\": " << e.penaltyCycles
        << ", \"period\": " << e.period << "}";
  }
  out << (events.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

Expected<FaultPlan, PlanParseError> planFromJson(const std::string& json) {
  JsonReader reader(json);
  FaultPlan plan;
  // A version or event that parsed but was refused.
  std::optional<PlanParseError> bad;
  const auto parseEvent = [&] {
    reader.skipWs();
    const std::size_t eventOffset = reader.offset();
    FaultEvent event;
    if (!reader.parseObject([&](const std::string& field, std::size_t) {
          if (field == "kind") {
            const std::string kindText = reader.parseString();
            if (reader.ok() && !parseKind(kindText, &event.kind)) {
              reader.fail("unknown fault kind \"" + kindText + "\"");
            }
          } else if (field == "target") {
            event.target = reader.parseInt("target");
          } else if (field == "start") {
            if (!toCycles(reader.parseNumber(), &event.start)) {
              reader.fail("start is not a valid cycle count");
            }
          } else if (field == "end") {
            if (!toCycles(reader.parseNumber(), &event.end)) {
              reader.fail("end is not a valid cycle count");
            }
          } else if (field == "magnitude") {
            event.magnitude = reader.parseNumber();
            if (reader.ok() && !std::isfinite(event.magnitude)) {
              reader.fail("magnitude is not finite");
            }
          } else if (field == "penaltyCycles") {
            if (!toCycles(reader.parseNumber(), &event.penaltyCycles)) {
              reader.fail("penaltyCycles is not a valid cycle count");
            }
          } else if (field == "period") {
            if (!toCycles(reader.parseNumber(), &event.period)) {
              reader.fail("period is not a valid cycle count");
            }
          } else {
            reader.fail("unknown event field \"" + field + "\"");
          }
          return reader.ok();
        })) {
      return false;
    }
    std::string detail;
    if (!appendEvent(plan, event, &detail)) {
      bad = PlanParseError{eventOffset, std::move(detail)};
      return false;
    }
    return true;
  };
  reader.parseObject([&](const std::string& key, std::size_t) {
    if (key == "version") {
      const int version = reader.parseInt("version");
      if (reader.ok() && version != kPlanFormatVersion) {
        bad = PlanParseError{reader.offset(),
                             "fault plan format version " +
                                 std::to_string(version) +
                                 "; this build reads version " +
                                 std::to_string(kPlanFormatVersion)};
      }
    } else if (key == "events") {
      reader.parseArray(parseEvent);
    } else {
      reader.fail("unknown fault plan key \"" + key + "\"");
    }
    return reader.ok() && !bad;
  });
  if (bad) {
    return makeUnexpected(std::move(*bad));
  }
  if (reader.ok() && !reader.atEnd()) {
    reader.fail("trailing bytes after the fault plan object");
  }
  if (!reader.ok()) {
    return makeUnexpected(readerError(reader));
  }
  return plan;
}

}  // namespace occm::fault

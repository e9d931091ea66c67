// Typed configuration errors for the serving tier.
//
// Every serve-side options struct (FleetOptions, BatcherConfig,
// HealthOptions, CanaryOptions, ShardRouterConfig, AutoScalerOptions)
// appends its violations to a ConfigIssues list through check(), each a
// ConfigError naming the offending field, so callers can react
// programmatically instead of string-matching a generic what().
// ConfigError derives from std::invalid_argument, so pre-existing catch
// sites keep working unchanged.
//
// Constructors throw the first violation through require_valid(). The
// aggregate ServeConfig::validate() collects EVERY violation before
// throwing, as a ConfigErrorList whose errors() each carry their own
// field() path — one pass over a config file reports all the typos, not
// just the first.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace autolearn::serve {

class ConfigError : public std::invalid_argument {
 public:
  ConfigError(std::string field, const std::string& why)
      : std::invalid_argument("serve config: " + field + ": " + why),
        field_(std::move(field)) {}

  /// Dotted path of the rejected option, e.g. "fleet.cars" or
  /// "autoscaler.cooldown_s".
  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

/// Every violation a ServeConfig::validate() pass found, in declaration
/// order. what() lists all the offending field paths on one line.
class ConfigErrorList : public std::invalid_argument {
 public:
  explicit ConfigErrorList(std::vector<ConfigError> errors)
      : std::invalid_argument(join(errors)), errors_(std::move(errors)) {}

  const std::vector<ConfigError>& errors() const { return errors_; }
  std::size_t size() const { return errors_.size(); }

  /// True when some violation names `field` (exact dotted-path match).
  bool has(const std::string& field) const {
    for (const ConfigError& e : errors_) {
      if (e.field() == field) return true;
    }
    return false;
  }

 private:
  static std::string join(const std::vector<ConfigError>& errors) {
    std::string out = "serve config: " + std::to_string(errors.size()) +
                      " violation(s):";
    for (const ConfigError& e : errors) out += " [" + e.field() + "]";
    return out;
  }

  std::vector<ConfigError> errors_;
};

/// Collector the per-struct check() methods append into.
using ConfigIssues = std::vector<ConfigError>;

/// Throws the first violation `options.check()` finds as a ConfigError;
/// no-op on valid options.
template <class Options>
void require_valid(const Options& options) {
  ConfigIssues issues;
  options.check(issues);
  if (!issues.empty()) throw issues.front();
}

}  // namespace autolearn::serve

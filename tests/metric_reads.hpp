// Registry reads for tests: the value an operator reads under a metric's
// name and label, the way vphi-top, vphi-stat and bench/perf read it.
//
// Every case in a test binary shares one registry, and a destroyed
// instrument's final count stays under its label. So a case reads a delta
// from a value it took before its action, or resets the registry in its
// fixture before it builds anything.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "sim/metrics.hpp"

namespace vphi {

inline std::uint64_t counter_at(const std::string& name,
                                const std::string& label) {
  const auto by_label = sim::metrics::registry().counter_by_label(name);
  const auto it = by_label.find(label);
  return it == by_label.end() ? 0 : it->second;
}

inline std::int64_t gauge_at(const std::string& name,
                             const std::string& label) {
  const auto by_label = sim::metrics::registry().gauge_by_label(name);
  const auto it = by_label.find(label);
  return it == by_label.end() ? 0 : it->second;
}

/// One label's counters as deltas from the moment this was made: what the
/// case's own actions added, whatever earlier cases left under the label.
class LabelDeltas {
 public:
  explicit LabelDeltas(std::string label) : label_(std::move(label)) {
    for (const std::string& name : sim::metrics::registry().metric_names()) {
      base_[name] = counter_at(name, label_);
    }
  }

  const std::string& label() const noexcept { return label_; }

  std::uint64_t operator[](const std::string& name) const {
    const auto it = base_.find(name);
    return counter_at(name, label_) - (it == base_.end() ? 0 : it->second);
  }

 private:
  std::string label_;
  std::map<std::string, std::uint64_t> base_;
};

}  // namespace vphi

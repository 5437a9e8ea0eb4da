// The host Xeon Phi driver's sysfs surface.
//
// Intel MPSS tools (micnativeloadex, micinfo) read card properties from
// /sys/class/mic/micN/*. The paper notes vPHI must expose the same
// information inside the guest for the tools to operate; the vPHI backend
// snapshots this table and the frontend serves it to guest-side tools.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace vphi::mic {

class SysfsInfo {
 public:
  /// The attribute table for an Intel Xeon Phi 3120P running MPSS 3.x —
  /// the card the paper evaluates on.
  static SysfsInfo for_3120p(std::uint32_t card_index);

  void set(const std::string& key, std::string value);
  std::optional<std::string> get(const std::string& key) const;

  /// Integer-valued attribute, or nullopt if missing/non-numeric.
  std::optional<std::uint64_t> get_u64(const std::string& key) const;

  /// Full table, ordered by key (stable for tests and `mic_info`).
  const std::map<std::string, std::string>& entries() const { return table_; }

 private:
  std::map<std::string, std::string> table_;
};

}  // namespace vphi::mic

#include "mic/sysfs.hpp"

#include <cstdlib>

namespace vphi::mic {

SysfsInfo SysfsInfo::for_3120p(std::uint32_t card_index) {
  SysfsInfo info;
  info.set("family", "Knights Corner");
  info.set("sku", "3120P");
  info.set("stepping", "C0");
  info.set("cores_count", "57");
  info.set("threads_per_core", "4");
  info.set("frequency_mhz", "1100");
  info.set("memsize_mb", "6144");
  info.set("memory_type", "GDDR5");
  info.set("driver_version", "3.8.6");
  info.set("uos_version", "2.6.38.8+mpss3.8.6");
  info.set("flash_version", "2.1.02.0391");
  info.set("state", "online");
  info.set("mic_id", std::to_string(card_index));
  info.set("device_node", "/dev/mic/scif");
  return info;
}

void SysfsInfo::set(const std::string& key, std::string value) {
  table_[key] = std::move(value);
}

std::optional<std::string> SysfsInfo::get(const std::string& key) const {
  auto it = table_.find(key);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint64_t> SysfsInfo::get_u64(const std::string& key) const {
  auto v = get(key);
  if (!v) return std::nullopt;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

}  // namespace vphi::mic

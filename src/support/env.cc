#include "src/support/env.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <thread>

namespace grapple {

const char* EnvRaw(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return nullptr;
  }
  return value;
}

std::string EnvString(const char* name, const std::string& default_value) {
  const char* value = EnvRaw(name);
  return value == nullptr ? default_value : std::string(value);
}

int64_t EnvInt64(const char* name, int64_t default_value) {
  const char* value = EnvRaw(name);
  if (value == nullptr) {
    return default_value;
  }
  char* end = nullptr;
  long long parsed = std::strtoll(value, &end, 10);
  if (end == value || (end != nullptr && *end != '\0')) {
    return default_value;
  }
  return static_cast<int64_t>(parsed);
}

bool EnvBool(const char* name, bool default_value) {
  const char* value = EnvRaw(name);
  if (value == nullptr) {
    return default_value;
  }
  std::string lowered;
  for (const char* p = value; *p != '\0'; ++p) {
    lowered.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (lowered == "1" || lowered == "true" || lowered == "yes" || lowered == "on") {
    return true;
  }
  if (lowered == "0" || lowered == "false" || lowered == "no" || lowered == "off") {
    return false;
  }
  return default_value;
}

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

size_t ResolveThreadCount(size_t requested) {
  int64_t forced = EnvInt64("GRAPPLE_THREADS", 0);
  if (forced > 0) {
    return static_cast<size_t>(forced);
  }
  return requested == 0 ? HardwareThreads() : requested;
}

uint32_t ResolveCheckpointInterval(uint32_t requested) {
  int64_t forced = EnvInt64("GRAPPLE_CHECKPOINT_INTERVAL", 0);
  if (forced > 0) {
    return static_cast<uint32_t>(forced);
  }
  bool enabled = EnvBool("GRAPPLE_CHECKPOINT", requested > 0);
  if (!enabled) {
    return 0;
  }
  return requested > 0 ? requested : kDefaultCheckpointInterval;
}

bool ResolveProfile(bool requested) { return EnvBool("GRAPPLE_PROFILE", requested); }

uint32_t ResolveProfileHz(uint32_t requested) {
  int64_t forced = EnvInt64("GRAPPLE_PROFILE_HZ", 0);
  if (forced > 0) {
    return static_cast<uint32_t>(std::min<int64_t>(forced, 1000));
  }
  return requested;
}

double ResolveCheckpointSpacing(double requested) {
  const char* value = EnvRaw("GRAPPLE_CHECKPOINT_SPACING");
  if (value == nullptr) {
    return requested;
  }
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  if (end == value || (end != nullptr && *end != '\0') || parsed < 0) {
    return requested;
  }
  return parsed;
}

}  // namespace grapple

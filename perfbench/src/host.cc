#include "host.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "hash/hash_family.h"
#include "util/simd.h"

namespace perfbench {

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// "L1d=48K L1i=32K L2=2048K L3=107520K" from cpu0's cache directory.
std::string CacheSizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::string level = ReadFirstLine(dir + "level");
    if (level.empty()) break;
    std::string type = ReadFirstLine(dir + "type");
    std::string size = ReadFirstLine(dir + "size");
    std::string tag = "L" + level;
    if (type == "Data") tag += "d";
    if (type == "Instruction") tag += "i";
    if (!out.empty()) out += " ";
    out += tag + "=" + size;
  }
  return out.empty() ? "unknown" : out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string HostRecordJson(const std::string& build_type,
                           const std::string& git_sha) {
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << JsonEscape(CpuModel()) << "\""
     << ", \"caches\": \"" << JsonEscape(CacheSizes()) << "\""
     << ", \"simd\": \""
     << abitmap::util::simd::SimdLevelName(
            abitmap::util::simd::ActiveSimdLevel())
     << "\""
     << ", \"string_hash4\": \""
     << JsonEscape(abitmap::hash::StringHash4Decision()) << "\""
     << ", \"build_type\": \"" << JsonEscape(build_type) << "\""
     << ", \"git_sha\": \"" << JsonEscape(git_sha) << "\"}";
  return os.str();
}

}  // namespace perfbench

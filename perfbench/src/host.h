#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

/// The host record printed with every run: core count, CPU model, cache
/// sizes, the active SIMD dispatch level (and the string-hash kernel
/// decision it calibrates at start-up), build type and git sha.
std::string HostRecordJson(const std::string& build_type,
                           const std::string& git_sha);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_

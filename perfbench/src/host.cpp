#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/run_trace.hpp"

namespace perfbench {

namespace {

std::string cpuBrand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  const unsigned maxLeaf = __get_cpuid_max(0x80000000U, nullptr);
  if (maxLeaf < 0x80000004U) {
    return "unknown";
  }
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  const std::string out(brand);
  const std::size_t first = out.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : out.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

HostInfo describeHost() {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(std::thread::hardware_concurrency());
  h.cpuModel = cpuBrand();
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.buildType = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  h.optimized = true;
#endif
  h.obsEnabled = occm::obs::kCompiledIn;
  h.assertsDisabled = PERFBENCH_DISABLE_ASSERTS != 0;
  return h;
}

double peakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

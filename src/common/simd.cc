#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace genbase::simd {

namespace {

/// -1 = unresolved; otherwise holds a Backend value.
std::atomic<int> g_backend{-1};

Backend Resolve() {
  const char* env = std::getenv("GENBASE_KERNEL_BACKEND");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return Backend::kScalar;
    if (std::strcmp(env, "simd") == 0) return Backend::kSimd;
  }
  return Backend::kSimd;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSimd:
      return "simd";
  }
  return "?";
}

bool CpuSupportsAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Backend ActiveBackend() {
  int v = g_backend.load(std::memory_order_acquire);
  if (v < 0) {
    const Backend resolved = Resolve();
    int expected = -1;
    if (g_backend.compare_exchange_strong(expected, static_cast<int>(resolved),
                                          std::memory_order_acq_rel)) {
      return resolved;
    }
    v = g_backend.load(std::memory_order_acquire);
  }
  return static_cast<Backend>(v);
}

Backend SetBackend(Backend backend) {
  const Backend previous = ActiveBackend();
  g_backend.store(static_cast<int>(backend), std::memory_order_release);
  return previous;
}

}  // namespace genbase::simd

#ifndef GENBASE_COMMON_SIMD_H_
#define GENBASE_COMMON_SIMD_H_

namespace genbase::simd {

/// \brief Which kernel backend the linear-algebra hot paths run on.
///
/// The backend selects only the micro-kernel set; every kernel runs the same
/// algorithm under both. kSimd routes Dot/Axpy/Gemv and the packed BLAS-3
/// macro-kernel through the AVX2+FMA micro-kernels when the CPU has them,
/// and through the portable scalar micro-kernels otherwise. kScalar forces
/// the portable set, which is what a host without AVX2 runs (so one binary
/// runs everywhere and that path is exercised even on AVX2 hosts).
enum class Backend { kScalar, kSimd };

/// "scalar" / "simd" — the strings reports and BENCH_*.json carry.
const char* BackendName(Backend backend);

/// Runtime CPUID check: does this machine execute AVX2+FMA?
bool CpuSupportsAvx2();

/// The backend every dispatching kernel consults. Resolved once, lazily:
/// GENBASE_KERNEL_BACKEND=scalar|simd overrides; the default is kSimd (the
/// micro-kernels degrade to packed scalar where AVX2 is unavailable).
Backend ActiveBackend();

/// Forces the backend (tests, kernelbench variants). Returns the previous
/// value so callers can restore it.
Backend SetBackend(Backend backend);

}  // namespace genbase::simd

#endif  // GENBASE_COMMON_SIMD_H_

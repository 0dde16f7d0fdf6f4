#ifndef GENBASE_COMMON_SIMD_H_
#define GENBASE_COMMON_SIMD_H_

namespace genbase::simd {

/// \brief Which kernel backend the linear-algebra hot paths run on.
///
/// kScalar keeps the portable blocked loops the repo shipped with; kSimd
/// routes Dot/Axpy/Gemv and the packed Gemm/Syrk macro-kernel through the
/// AVX2+FMA micro-kernels when the CPU has them, and through packed scalar
/// micro-kernels otherwise (so one binary runs everywhere and the packed
/// code paths are exercised even on non-x86 hosts).
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

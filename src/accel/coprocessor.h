#ifndef GENBASE_ACCEL_COPROCESSOR_H_
#define GENBASE_ACCEL_COPROCESSOR_H_

#include <cstdint>

#include "core/queries.h"

namespace genbase::accel {

/// \brief Kernel classes with different acceleration profiles on a many-core
/// coprocessor (paper Section 5).
enum class KernelClass {
  kGemmBound,       ///< Covariance, SVD: compute-rich, big speedups.
  kBandwidthBound,  ///< Statistics: limited by memory streams.
  kLatencyBound,    ///< Biclustering: "takes very little computation time
                    ///< and cannot be expected to show significant speedup
                    ///< on any accelerator".
};

KernelClass KernelClassFor(core::QueryId query);

/// \brief Analytic model of an Intel Xeon Phi 5110P-class coprocessor
/// attached over PCIe. No such device exists in this environment, so the
/// *compute ratio* is modeled (from the device/host peak FLOP and bandwidth
/// ratios, derated) while the decisive structural effects — transfer
/// amortization with data size, device memory capacity, communication not
/// accelerating — are computed from the actual workload sizes. Constants
/// live in core::SimConfig, whose comments document each substitution.
class Coprocessor {
 public:
  Coprocessor();  // From SimConfig.
  Coprocessor(double gemm_speedup, double bandwidth_speedup,
              double transfer_bytes_per_s, double launch_latency_s,
              int64_t memory_bytes);

  /// Speedup applied to host compute seconds for a kernel class.
  double ComputeSpeedup(KernelClass kernel_class) const;

  /// PCIe transfer time for `bytes` (one direction), plus launch latency.
  double TransferSeconds(int64_t bytes) const;

  /// Whether a working set fits on-device ("data sets that do not fit in
  /// this memory will suffer excessive data movement costs").
  bool Fits(int64_t bytes) const { return bytes <= memory_bytes_; }

  /// End-to-end modeled device-seconds for an analytics phase measured at
  /// `host_seconds` over `input_bytes`. Falls back to host execution when
  /// the working set does not fit on the device.
  double OffloadedSeconds(KernelClass kernel_class, int64_t input_bytes,
                          double host_seconds) const;

 private:
  double gemm_speedup_;
  double bandwidth_speedup_;
  double transfer_bytes_per_s_;
  double launch_latency_s_;
  int64_t memory_bytes_;
};

}  // namespace genbase::accel

#endif  // GENBASE_ACCEL_COPROCESSOR_H_

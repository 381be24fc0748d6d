// Shared helpers of the gqc benchmark harness: clocks, percentiles, the
// deterministic PRNG every schedule is drawn from, and the metric sink the
// result line is printed from.
#ifndef GQC_PERFBENCH_COMMON_H_
#define GQC_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: a portable PRNG, so a seed yields the same schedule on every
/// standard library (std::shuffle's algorithm is implementation-defined).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// In [0, n) for n > 0 (modulo bias is irrelevant for shuffling a few
  /// hundred indices).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// `v` with 17 significant digits (0 for NaN/infinity).
std::string FullDouble(double v);

/// Renders {"correct":..,"attempted":..,"failed":..,"metrics":{..}} — the
/// benchmark's result line.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // GQC_PERFBENCH_COMMON_H_

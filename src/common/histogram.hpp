// Log2-bucketed latency histogram: fixed storage, O(1) record, and
// percentile estimates good to one power of two — enough to tell a
// 30-cycle clean miss from a 300-cycle contended one, which is what
// the paper's latency arguments need (mean alone hides the tail that
// the delay arcs create).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace mcsim {

/// Fixed-size histogram over unsigned values. Bucket 0 holds the value
/// 0; bucket b >= 1 holds [2^(b-1), 2^b - 1]; the last bucket absorbs
/// everything beyond. Exact sum/count/max are kept alongside, so mean
/// and max stay exact and only the percentiles are bucket-quantised.
class LogHistogram {
 public:
  /// Buckets 0..32: value 0, then 32 powers-of-two spans. A 33rd-bucket
  /// observation is a multi-billion-cycle latency, i.e. a bug.
  static constexpr std::size_t kBuckets = 33;

  static std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    return std::min<std::size_t>(std::bit_width(v), kBuckets - 1);
  }
  /// Smallest value bucket b can hold.
  static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Largest value bucket b can hold (last bucket is open-ended).
  static std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 0;
    if (b >= kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    sum_ += v;
    ++count_;
    max_ = std::max(max_, v);
  }

  /// Fold another histogram in (cross-core aggregation in run_cell).
  void merge(const LogHistogram& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
    sum_ += o.sum_;
    count_ += o.count_;
    max_ = std::max(max_, o.max_);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  std::uint64_t bucket_count(std::size_t b) const { return buckets_[b]; }

  /// Value at quantile q in [0, 1]: the upper bound of the bucket
  /// holding the ceil(q*count)-th smallest observation, clamped to the
  /// exact max. Returns 0 on an empty histogram.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    if (rank < q * static_cast<double>(count_) || rank == 0) ++rank;  // ceil, min 1
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      cum += buckets_[b];
      if (cum >= rank) return std::min(bucket_hi(b), max_);
    }
    return max_;
  }
  std::uint64_t p50() const { return percentile(0.50); }
  std::uint64_t p90() const { return percentile(0.90); }
  std::uint64_t p99() const { return percentile(0.99); }

  void clear() { *this = LogHistogram(); }

  /// Visit every field for a PeriodWalk: counts and the sum grow, the
  /// max repeats.
  template <typename Walk>
  void walk(Walk& w) {
    for (std::uint64_t& b : buckets_) w.counter(b);
    w.counter(sum_);
    w.counter(count_);
    w.plain(max_);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace mcsim

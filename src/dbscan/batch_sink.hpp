// Streaming delivery surface of the batched neighbor-table builder.
//
// The two-pass CSR pipeline knows two things long before the merged table
// exists: after pass 1 (count kernel + scan) it has *exact* per-key
// neighbor counts, and after each fill pass it holds one batch's CSR rows
// in pinned staging. A BatchSink receives both the moment they land, so a
// consumer (dbscan/streaming_dbscan.hpp) can resolve core flags and union
// core-core edges while the GPU is still filling later batches — instead
// of waiting for shard merge + half-table expansion + a full table scan.
//
// Delivery contract (what the builder guarantees):
//  * Callbacks run on the builder's stream threads, concurrently across
//    streams and devices. Implementations must be thread-safe.
//  * The spans point into the builder's staging buffers and are valid only
//    for the duration of the call.
//  * Exactly-once per key: whatever the degradation ladder does — transient
//    retries, OOM shrink-splits, overflow splits, failover to a surviving
//    device, host-fallback completion — every key's row is delivered
//    exactly once, and every key's count contribution is delivered exactly
//    once (`BatchDelivery::counts_delivered` says whether the count arrived
//    separately or must be derived from the row itself).
//  * Rows are *forward* rows: every cross pair (k, v) appears in exactly
//    one of its two rows, and row k holds self. Grid builds cover pairs by
//    the stencil (same-cell ids >= k plus the forward stencil half); the
//    whole-table host fallback covers them by id (v >= k).
//    Counts are forward counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace hdbscan {

/// Exact pass-1 neighbor counts for one batch's strided key set: key
/// first_key + g * key_stride has counts[g] forward neighbors, self
/// included. When `keys` is non-empty it overrides the arithmetic key
/// set: entry g belongs to keys[g] — the sharded build
/// delivers scattered *global* ids this way (a shard's strided local keys
/// translate to an arbitrary global subset).
struct CountDelivery {
  std::uint32_t first_key = 0;
  std::uint32_t key_stride = 1;
  std::span<const std::uint32_t> counts;
  std::span<const PointId> keys;  ///< explicit keys; empty = strided

  [[nodiscard]] PointId key_at(std::size_t g) const noexcept {
    return keys.empty() ? first_key + static_cast<std::uint32_t>(g) *
                                          key_stride
                        : keys[g];
  }
};

/// One batch's CSR rows: key first_key + g * key_stride owns the values in
/// [offsets[g], offsets[g + 1]) — the last key runs to values.size().
/// `offsets` is the exclusive prefix scan the device produced. A non-empty
/// `keys` span overrides the arithmetic key set (see CountDelivery).
struct BatchDelivery {
  std::uint32_t first_key = 0;
  std::uint32_t key_stride = 1;
  /// True when these keys' counts already arrived via consume_counts();
  /// false (host-fallback rungs) means degrees must be derived from the
  /// row lengths in this delivery.
  bool counts_delivered = false;
  std::span<const std::uint32_t> offsets;
  std::span<const PointId> values;
  std::span<const PointId> keys;  ///< explicit keys; empty = strided

  [[nodiscard]] PointId key_at(std::size_t g) const noexcept {
    return keys.empty() ? first_key + static_cast<std::uint32_t>(g) *
                                          key_stride
                        : keys[g];
  }
};

class BatchSink {
 public:
  virtual ~BatchSink() = default;

  /// Pass-1 counts for a batch — fires before that batch's fill kernel
  /// runs, so degrees accumulate ahead of the rows. Optional.
  virtual void consume_counts(const CountDelivery& /*delivery*/) {}

  /// One completed batch's CSR rows, straight from pinned staging.
  virtual void consume(const BatchDelivery& delivery) = 0;
};

/// Replicates every delivery to each registered sink — the data-reuse
/// scheduler feeds one streaming clusterer per minpts value from a single
/// build this way.
class FanoutSink final : public BatchSink {
 public:
  void add(BatchSink* sink) { sinks_.push_back(sink); }
  [[nodiscard]] bool empty() const noexcept { return sinks_.empty(); }

  void consume_counts(const CountDelivery& delivery) override {
    for (BatchSink* s : sinks_) s->consume_counts(delivery);
  }
  void consume(const BatchDelivery& delivery) override {
    for (BatchSink* s : sinks_) s->consume(delivery);
  }

 private:
  std::vector<BatchSink*> sinks_;
};

}  // namespace hdbscan

// metrics.h - the unified metric registry (DESIGN.md section 10).
//
// One way to count things: every subsystem publishes its counters, gauges and
// latency histograms through a MetricRegistry keyed `subsystem.component.name`
// (first dot-segment = subsystem: simkern, via, core, pinmgr, msg, fault,
// obs). Two publication styles coexist:
//
//   * owned instruments - counter()/gauge()/histogram() hand out get-or-create
//     handles the hot path updates directly (ioctl latency histograms, DMA
//     byte sizes). Handles are stable for the registry's lifetime.
//   * pull sources - register_source(name, owner, obj, rows) publishes a
//     component's stats struct through a constant table of MetricRows, so
//     the long-lived per-subsystem counter structs (KernelStats, AgentStats,
//     GovernorStats, ...) keep their cheap `++stats_.x` hot paths while still
//     exporting through the one registry. Each such struct is declared from
//     one X-macro list of (member, metric name, kind) entries; the struct's
//     members, its rows, its /proc text and its roll-ups all expand from that
//     list, so a counter cannot be declared without being exported.
//
// Sources carry an owner tag: re-registering a name replaces the previous
// source (a rebuilt component - enable_governor(), a new Channel - simply
// takes the name over), and unregister_source() is a no-op unless the caller
// still owns the name. That makes construct-new-then-destroy-old sequences
// safe without ordering gymnastics.
//
// snapshot() merges owned instruments and pulled sources into one vector
// sorted by metric name. Every value is derived from the deterministic
// simulation (virtual clock, seeded RNG), so same-seed runs produce
// byte-identical snapshots - the property the exporters (src/obs/export.h)
// and the benches' --metrics flag rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vialock::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

[[nodiscard]] constexpr std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, frames in use).
class Gauge {
 public:
  void set(std::uint64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += static_cast<std::uint64_t>(d); }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Log2-bucketed histogram for latency-like quantities (same bucketing as
/// util/stats.h Log2Histogram, plus a running sum and exact max so exporters
/// can report mean and tail without keeping samples).
///
/// Bucket i holds values whose bit-width is i: bucket 0 = {0}, bucket 1 =
/// {1}, bucket k = [2^(k-1), 2^k - 1]. upper_bound(i) is the largest value
/// bucket i admits.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;  // unsigned, so a running max from 0 works
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max() const {
    return count_ ? max_ : 0;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }

  /// Upper bound of the bucket holding quantile q in [0,1]; 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    const std::uint64_t n = count_;
    if (n == 0) return 0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > target) return upper_bound(i);
    }
    return upper_bound(kBuckets - 1);
  }

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    return static_cast<std::size_t>(64 - __builtin_clzll(v));
  }
  [[nodiscard]] static constexpr std::uint64_t upper_bound(std::size_t i) {
    return i == 0 ? 0 : (i >= 64 ? ~0ULL : (1ULL << i) - 1);
  }

  /// Fill a snapshot Metric (count/sum/max, non-empty buckets, all four
  /// tail quantiles) in a single pass over the bucket array - the sampler
  /// calls this on every tick for every owned histogram, where the separate
  /// quantile() walks would touch the (cache-cold) buckets six times over.
  void snapshot_to(struct Metric& m) const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// One metric in a snapshot. Counters/gauges carry `value`; histograms carry
/// count/sum/max, the non-empty buckets, and precomputed tail quantiles.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;
  // Histogram payload:
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;  ///< idx -> n
};

/// All metrics, sorted by name (deterministic across same-seed runs).
using Snapshot = std::vector<Metric>;

/// Merge-plan slot meaning "skip this emission" (cross-kind name clash).
inline constexpr std::uint32_t kNoFoldSlot = ~std::uint32_t{0};

/// Add `src`'s (bucket index, count) pairs into the sorted list `dst` in
/// place (no temporary): the cross-host histogram merge primitive.
void add_buckets(std::vector<std::pair<std::uint32_t, std::uint64_t>>& dst,
                 const std::vector<std::pair<std::uint32_t, std::uint64_t>>& src);

/// One exported value of a pull source: a std::uint64_t field of the
/// source's stats object at `offset` or, when `read` is set, a value computed
/// from the source's owner. Rows are constant data, so a source's (name,
/// kind) layout is fixed for the lifetime of its registration by type.
struct MetricRow {
  std::string_view name;  ///< appended to the source name; "" = not exported
  MetricKind kind = MetricKind::Counter;
  std::size_t offset = 0;
  std::uint64_t (*read)(const void* owner) = nullptr;
  std::string_view proc = {};  ///< /proc key of a row rendered under
                               ///< another name (vmstat's Linux keys)

  [[nodiscard]] bool is_field() const { return read == nullptr; }
  [[nodiscard]] const std::uint64_t& field(const void* obj) const {
    return *reinterpret_cast<const std::uint64_t*>(
        static_cast<const char*>(obj) + offset);
  }
  [[nodiscard]] std::uint64_t& field(void* obj) const {
    return *reinterpret_cast<std::uint64_t*>(static_cast<char*>(obj) + offset);
  }
  [[nodiscard]] std::uint64_t value(const void* owner, const void* obj) const {
    return read != nullptr ? read(owner) : field(obj);
  }
};

using MetricTable = std::span<const MetricRow>;

namespace detail {
template <class>
struct OwnerOf;
template <class C, class R, class O>
struct OwnerOf<R (C::*)(const O&) const> {
  using type = O;
};
}  // namespace detail

/// A computed row: `F` is a captureless lambda taking `const Owner&` (the
/// owner the source registers with) and returning the value.
template <auto F, MetricKind K = MetricKind::Gauge>
[[nodiscard]] constexpr MetricRow computed(std::string_view name,
                                           std::string_view proc = {}) {
  using Owner =
      typename detail::OwnerOf<decltype(&decltype(F)::operator())>::type;
  return {name, K, 0,
          [](const void* owner) -> std::uint64_t {
            return F(*static_cast<const Owner*>(owner));
          },
          proc};
}

/// "name value" lines for the exported field rows of `rows`, read from
/// `obj`: the stats block of a /proc node.
[[nodiscard]] std::string render_fields(MetricTable rows, const void* obj);

// X-macro callbacks for stats lists whose entries read
// X(member, "metric name", Kind[, "proc key"]). A list declares its struct's
// members with VIALOCK_STAT_MEMBER and its rows with VIALOCK_STAT_ROW, the
// latter expanded where `Stats` names the struct. VIALOCK_STAT_NONE drops
// an entry.
#define VIALOCK_STAT_NONE(...)
#define VIALOCK_STAT_MEMBER(member, ...) std::uint64_t member = 0;
#define VIALOCK_STAT_ROW(member, name, kind, ...)                   \
  ::vialock::obs::MetricRow{name, ::vialock::obs::MetricKind::kind, \
                            offsetof(Stats, member), nullptr, __VA_ARGS__},

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // --- owned instruments (hot-path handles, stable addresses) ----------------
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  // --- pull sources -----------------------------------------------------------
  /// Publish `rows` under `name.`: field rows read `obj`, computed rows read
  /// `owner`; rows with an empty name are not exported. A name already
  /// registered is taken over (the previous owner's later unregister_source
  /// becomes a no-op). `owner`, `obj` and `rows` must outlive the
  /// registration.
  void register_source(std::string name, const void* owner, const void* obj,
                       MetricTable rows);
  /// Remove `name` if - and only if - `owner` still owns it.
  void unregister_source(std::string_view name, const void* owner);
  [[nodiscard]] std::size_t num_sources() const { return sources_.size(); }
  /// Call `f(name, rows)` for every registered source, in name order.
  template <class F>
  void for_each_source(F&& f) const {
    for (const auto& [name, src] : sources_) f(name, src.rows);
  }

  /// Merge owned instruments and pulled sources, sorted by metric name.
  [[nodiscard]] Snapshot snapshot() const;

  /// Snapshot into a caller-owned buffer in *emission* order (not sorted).
  /// When `layout_gen` still matches the registry's layout generation
  /// (bumped by every instrument creation and source (un)registration) the
  /// buffer holds this exact layout, so only values are overwritten - no
  /// names, no allocation; otherwise it is rebuilt. `layout_gen` is updated
  /// to the current generation. Returns true when the buffer was reused in
  /// place, false when it was rebuilt (the caller must recompute anything
  /// derived from the layout).
  bool snapshot_into(Snapshot& out, std::uint64_t& layout_gen) const;

  /// Fold current instrument values directly into `target` through the
  /// merge plan `map` (emission index -> target slot, kNoFoldSlot skips):
  /// counters/gauges add into the slot's value, histograms merge buckets
  /// and running stats (quantiles are left for the caller to recompute
  /// from the merged buckets). This is the sampler's steady-state tick -
  /// it touches no names, writes no intermediate buffer and allocates
  /// nothing. Returns false *without folding anything* when `layout_gen`
  /// no longer matches; the caller must re-snapshot and re-plan.
  bool fold_into(Snapshot& target, const std::vector<std::uint32_t>& map,
                 std::uint64_t layout_gen) const;

 private:
  struct Source {
    const void* owner = nullptr;
    const void* obj = nullptr;
    MetricTable rows;
  };

  /// Call `f(prefix, name, kind, value, histogram)` for every metric in
  /// emission order: owned counters, gauges and histograms (empty prefix,
  /// `histogram` set for the latter), then every source's exported rows.
  template <class F>
  void visit(F&& f) const;

  /// Bumped whenever the metric *layout* can change (instrument creation,
  /// source (un)registration); lets snapshot_into and fold_into prove a
  /// buffer or merge plan still matches without re-verifying names. Starts
  /// at 1 so a caller's zero-initialised cached generation never matches
  /// spuriously.
  std::uint64_t layout_gen_ = 1;
  // Ordered maps: iteration (and therefore snapshot order before the final
  // sort) is deterministic. unique_ptr keeps instrument addresses stable
  // across later insertions.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, Source, std::less<>> sources_;
};

}  // namespace vialock::obs

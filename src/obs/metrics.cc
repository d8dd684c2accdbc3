#include "obs/metrics.h"

#include <algorithm>

namespace vialock::obs {

void add_buckets(
    std::vector<std::pair<std::uint32_t, std::uint64_t>>& dst,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& src) {
  std::size_t i = 0;
  for (const auto& [idx, n] : src) {
    while (i < dst.size() && dst[i].first < idx) ++i;
    if (i < dst.size() && dst[i].first == idx) {
      dst[i].second += n;
    } else {
      dst.insert(dst.begin() + static_cast<std::ptrdiff_t>(i), {idx, n});
    }
  }
}

std::string render_fields(MetricTable rows, const void* obj) {
  std::string out;
  for (const MetricRow& r : rows) {
    if (!r.is_field() || r.name.empty()) continue;
    out.append(r.name).append(" ").append(std::to_string(r.field(obj)));
    out.push_back('\n');
  }
  return out;
}

void Histogram::snapshot_to(Metric& m) const {
  std::uint64_t b[kBuckets];
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    b[i] = buckets_[i];
    n += b[i];
  }
  m.count = n;
  m.sum = sum_;
  m.max = n != 0 ? max_ : 0;
  m.buckets.clear();  // keeps capacity: steady state allocates nothing
  if (n == 0) {
    m.p50 = m.p95 = m.p99 = m.p999 = 0;
    return;
  }
  // Same walk as quantile(), all four tails in one pass: a quantile is the
  // upper bound of the bucket where the running count first exceeds its
  // target. Every target is <= n-1 < n, so each always resolves.
  const auto target = [n](double q) {
    return static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  };
  const std::uint64_t t50 = target(0.50), t95 = target(0.95),
                      t99 = target(0.99), t999 = target(0.999);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (b[i] == 0) continue;
    m.buckets.emplace_back(static_cast<std::uint32_t>(i), b[i]);
    const std::uint64_t prev = seen;
    seen += b[i];
    const std::uint64_t ub = upper_bound(i);
    if (prev <= t50 && seen > t50) m.p50 = ub;
    if (prev <= t95 && seen > t95) m.p95 = ub;
    if (prev <= t99 && seen > t99) m.p99 = ub;
    if (prev <= t999 && seen > t999) m.p999 = ub;
  }
}

Counter& MetricRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
    ++layout_gen_;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    ++layout_gen_;
  }
  return *it->second;
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
    ++layout_gen_;
  }
  return *it->second;
}

void MetricRegistry::register_source(std::string name, const void* owner,
                                     const void* obj, MetricTable rows) {
  sources_.insert_or_assign(std::move(name), Source{owner, obj, rows});
  ++layout_gen_;
}

void MetricRegistry::unregister_source(std::string_view name,
                                       const void* owner) {
  const auto it = sources_.find(name);
  if (it != sources_.end() && it->second.owner == owner) {
    sources_.erase(it);
    ++layout_gen_;
  }
}

template <class F>
void MetricRegistry::visit(F&& f) const {
  for (const auto& [name, c] : counters_)
    f(std::string_view{}, name, MetricKind::Counter, c->value(), nullptr);
  for (const auto& [name, g] : gauges_)
    f(std::string_view{}, name, MetricKind::Gauge, g->value(), nullptr);
  for (const auto& [name, h] : histograms_)
    f(std::string_view{}, name, MetricKind::Histogram, 0, h.get());
  for (const auto& [name, src] : sources_) {
    for (const MetricRow& r : src.rows) {
      if (!r.name.empty())
        f(name, r.name, r.kind, r.value(src.owner, src.obj), nullptr);
    }
  }
}

Snapshot MetricRegistry::snapshot() const {
  Snapshot out;
  std::uint64_t gen = 0;  // never current: a fresh build
  snapshot_into(out, gen);
  std::sort(out.begin(), out.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return out;
}

bool MetricRegistry::snapshot_into(Snapshot& out,
                                   std::uint64_t& layout_gen) const {
  if (layout_gen == layout_gen_ && !out.empty()) {
    // The buffer was filled from this exact layout: overwrite in place.
    Metric* m = out.data();
    visit([&m](std::string_view, std::string_view, MetricKind,
               std::uint64_t v, const Histogram* h) {
      if (h != nullptr) {
        h->snapshot_to(*m);
      } else {
        m->value = v;
      }
      ++m;
    });
    return true;
  }
  out.clear();
  visit([&out](std::string_view prefix, std::string_view name,
               MetricKind kind, std::uint64_t v, const Histogram* h) {
    Metric& m = out.emplace_back();
    if (!prefix.empty()) m.name.append(prefix).append(".");
    m.name.append(name);
    m.kind = kind;
    if (h != nullptr) {
      h->snapshot_to(m);
    } else {
      m.value = v;
    }
  });
  layout_gen = layout_gen_;
  return false;
}

bool MetricRegistry::fold_into(Snapshot& target,
                               const std::vector<std::uint32_t>& map,
                               std::uint64_t layout_gen) const {
  if (layout_gen != layout_gen_) return false;
  // The generation match proves `map` was planned from this exact layout
  // (source rows are constant tables), so every value below lands on its
  // planned slot positionally.
  std::size_t cur = 0;
  visit([&](std::string_view, std::string_view, MetricKind, std::uint64_t v,
            const Histogram* h) {
    const std::uint32_t t = map[cur++];
    if (t == kNoFoldSlot) return;
    Metric& d = target[t];
    if (h == nullptr) {
      d.value += v;
      return;
    }
    std::uint64_t n = 0;
    std::size_t di = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t bn = h->bucket(i);
      if (bn == 0) continue;
      n += bn;
      const auto idx = static_cast<std::uint32_t>(i);
      while (di < d.buckets.size() && d.buckets[di].first < idx) ++di;
      if (di < d.buckets.size() && d.buckets[di].first == idx) {
        d.buckets[di].second += bn;
      } else {
        d.buckets.insert(d.buckets.begin() + static_cast<std::ptrdiff_t>(di),
                         {idx, bn});
      }
    }
    d.count += n;
    d.sum += h->sum();
    if (n != 0) d.max = std::max(d.max, h->max());
  });
  return true;
}

}  // namespace vialock::obs

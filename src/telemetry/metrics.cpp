#include "telemetry/metrics.hpp"

namespace lcr::telemetry {

std::size_t Counter::stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx & (kStripes - 1);
}

std::uint64_t Histogram::quantile_lo(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > target) return bucket_lo(i);
  }
  return bucket_lo(kBuckets - 1);
}

void Registration::release() {
  if (registry_ != nullptr) registry_->unregister(token_);
  registry_ = nullptr;
  token_ = 0;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

Registration Registry::register_probes(std::vector<Probe> probes) {
  std::lock_guard<std::mutex> guard(mu_);
  const std::uint64_t token = next_token_++;
  probe_sets_.emplace(token, std::move(probes));
  return Registration(this, token);
}

void Registry::unregister(std::uint64_t token) {
  std::lock_guard<std::mutex> guard(mu_);
  probe_sets_.erase(token);
}

std::uint64_t Registry::sum(std::string_view name) const {
  std::lock_guard<std::mutex> guard(mu_);
  std::uint64_t total = 0;
  if (auto it = counters_.find(name); it != counters_.end())
    total += it->second->value();
  for (const auto& [token, probes] : probe_sets_)
    for (const Probe& p : probes)
      if (p.name == name) total += p.value->load(std::memory_order_relaxed);
  return total;
}

std::map<std::string, std::uint64_t> Registry::snapshot() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] += c->value();
  for (const auto& [token, probes] : probe_sets_)
    for (const Probe& p : probes)
      out[p.name] += p.value->load(std::memory_order_relaxed);
  for (const auto& [name, h] : histograms_) {
    out[name + ".count"] = h->count();
    out[name + ".sum"] = h->sum();
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [token, probes] : probe_sets_)
    for (Probe& p : probes) p.value->store(0, std::memory_order_relaxed);
}

}  // namespace lcr::telemetry

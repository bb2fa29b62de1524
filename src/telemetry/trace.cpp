#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "runtime/spinlock.hpp"
#include "runtime/ult.hpp"

namespace lcr::telemetry {

namespace {

/// Per-execution-context event ring. Registered globally on first use and
/// kept alive by shared ownership (the global list + the owning context's
/// handle), so a collector can still read events of contexts that already
/// exited. An "execution context" is an OS thread — or, under the ULT host
/// scheduler, one fiber: a simulated host's spans must attribute to that
/// host's rings, not to whichever OS worker happened to run it (the
/// re-keying satellite of DESIGN.md §16).
struct ThreadBuffer {
  static constexpr std::size_t kCapacity = 1 << 16;
  mutable rt::Spinlock lock;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
};

// Guards the ring list. A spinlock, not a std::mutex: the collectors take
// each ring's spinlock inside it, and a contended one yields the collector's
// fiber (runner host 0 calls reset_trace() on a fiber), so a sibling fiber
// registering its ring must yield rather than block the shared worker
// (DESIGN.md §16).
rt::Spinlock g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& buffer_list() {
  static auto* list = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *list;
}

#ifndef LCR_TELEMETRY_DISABLED
std::shared_ptr<ThreadBuffer> make_buffer() {
  auto b = std::make_shared<ThreadBuffer>();
  std::lock_guard<rt::Spinlock> guard(g_buffers_mu);
  b->tid = static_cast<std::uint32_t>(buffer_list().size());
  buffer_list().push_back(b);
  return b;
}

ThreadBuffer& tls_buffer() {
  if (ult::on_fiber()) {
    static const int slot = ult::fls_alloc(
        [](void* p) { delete static_cast<std::shared_ptr<ThreadBuffer>*>(p); });
    auto* sp =
        static_cast<std::shared_ptr<ThreadBuffer>*>(ult::fls_get(slot));
    if (sp == nullptr) {
      sp = new std::shared_ptr<ThreadBuffer>(make_buffer());
      ult::fls_set(slot, sp);
    }
    return **sp;
  }
  thread_local std::shared_ptr<ThreadBuffer> buf = make_buffer();
  return *buf;
}

bool env_enabled() {
  const char* v = std::getenv("LCR_TELEMETRY");
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0 ||
         std::strcmp(v, "true") == 0;
}

std::uint32_t env_sample_every() {
  const char* v = std::getenv("LCR_TRACE_SAMPLE");
  if (v == nullptr) return 0;
  const long n = std::strtol(v, nullptr, 10);
  return n > 0 ? static_cast<std::uint32_t>(n) : 0;
}

std::uint64_t env_sample_seed() {
  const char* v = std::getenv("LCR_TRACE_SEED");
  if (v == nullptr) return 0;
  return std::strtoull(v, nullptr, 10);
}

/// splitmix64 finalizer: the same deterministic mixer the fabric's fault
/// roller uses, so sampling decisions are pure functions of the seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
#endif  // !LCR_TELEMETRY_DISABLED

/// Per-ring overflow counts, keyed by tid (for the export drop markers).
std::vector<std::pair<std::uint32_t, std::uint64_t>> collect_drops() {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  std::lock_guard<rt::Spinlock> guard(g_buffers_mu);
  for (const auto& buf : buffer_list()) {
    std::lock_guard<rt::Spinlock> b(buf->lock);
    if (buf->dropped > 0) out.emplace_back(buf->tid, buf->dropped);
  }
  return out;
}

}  // namespace

#ifndef LCR_TELEMETRY_DISABLED

namespace detail {

std::atomic<bool> g_enabled{env_enabled()};

std::uint32_t this_thread_tid() { return tls_buffer().tid; }

void record(TraceEvent&& ev) {
  ThreadBuffer& buf = tls_buffer();
  std::lock_guard<rt::Spinlock> guard(buf.lock);
  if (buf.events.size() >= ThreadBuffer::kCapacity) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(std::move(ev));
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void instant(const char* cat, const char* name, std::uint32_t pid,
             std::string args) {
  if (!enabled()) return;
  detail::record({cat, name, rt::now_ns(), 0, pid,
                  detail::this_thread_tid(), 'i', 0, 0, std::move(args)});
}

void emit_complete(const char* cat, const char* name, std::uint32_t pid,
                   std::uint64_t begin_ns, std::uint64_t dur_ns) {
  if (!enabled()) return;
  detail::record({cat, name, begin_ns, dur_ns, pid,
                  detail::this_thread_tid(), 'X', 0, 0, {}});
}

namespace {
std::atomic<std::uint32_t> g_sample_every{env_sample_every()};
std::atomic<std::uint64_t> g_sample_seed{env_sample_seed()};
}  // namespace

void hop(const char* stage, std::uint32_t pid, std::uint32_t trace_id,
         std::uint32_t attempt, std::string args) {
  if (!enabled() || trace_id == 0) return;
  detail::record({"flow", stage, rt::now_ns(), 0, pid,
                  detail::this_thread_tid(), 'f', trace_id, attempt,
                  std::move(args)});
}

void set_trace_sampling(std::uint32_t every, std::uint64_t seed) noexcept {
  g_sample_every.store(every, std::memory_order_relaxed);
  g_sample_seed.store(seed, std::memory_order_relaxed);
}

std::uint32_t trace_sample_every() noexcept {
  return g_sample_every.load(std::memory_order_relaxed);
}

std::uint32_t sample_trace_id(std::uint32_t host, std::uint32_t phase_id,
                              std::uint32_t base_pos,
                              std::uint32_t salt) noexcept {
  const std::uint32_t every = g_sample_every.load(std::memory_order_relaxed);
  if (every == 0 || !enabled()) return 0;
  std::uint64_t h = g_sample_seed.load(std::memory_order_relaxed);
  h = mix64(h ^ (static_cast<std::uint64_t>(host) << 40) ^
            (static_cast<std::uint64_t>(phase_id) << 20) ^ base_pos ^
            (static_cast<std::uint64_t>(salt) << 52));
  if (h % every != 0) return 0;
  const auto id = static_cast<std::uint32_t>(h >> 32);
  return id != 0 ? id : 1;  // 0 means "unsampled" on the wire
}

#endif  // !LCR_TELEMETRY_DISABLED

std::vector<TraceEvent> collect_trace() {
  std::vector<TraceEvent> out;
  std::lock_guard<rt::Spinlock> guard(g_buffers_mu);
  for (const auto& buf : buffer_list()) {
    std::lock_guard<rt::Spinlock> b(buf->lock);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

void reset_trace() {
  std::lock_guard<rt::Spinlock> guard(g_buffers_mu);
  for (const auto& buf : buffer_list()) {
    std::lock_guard<rt::Spinlock> b(buf->lock);
    buf->events.clear();
    buf->dropped = 0;
  }
}

std::uint64_t trace_dropped() {
  std::uint64_t total = 0;
  std::lock_guard<rt::Spinlock> guard(g_buffers_mu);
  for (const auto& buf : buffer_list()) {
    std::lock_guard<rt::Spinlock> b(buf->lock);
    total += buf->dropped;
  }
  return total;
}

bool write_chrome_trace(const std::string& path,
                        const std::map<std::string, std::uint64_t>& other) {
  const std::vector<TraceEvent> events = collect_trace();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  std::uint64_t t0 = ~std::uint64_t{0};
  std::uint64_t t_end = 0;
  for (const TraceEvent& e : events) {
    t0 = std::min(t0, e.ts_ns);
    t_end = std::max(t_end, e.ts_ns + e.dur_ns);
  }
  if (events.empty()) t0 = 0;

  // Hop counts per trace id, so the streaming pass knows which hop opens a
  // flow chain ("s"), which continue it ("t") and which terminates it ("f").
  std::map<std::uint32_t, std::uint32_t> flow_total;
  for (const TraceEvent& e : events)
    if (e.phase == 'f') ++flow_total[e.flow_id];
  std::map<std::uint32_t, std::uint32_t> flow_seen;

  std::fputs("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [", f);
  bool first = true;
  const auto sep = [&] {
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
  };
  for (const TraceEvent& e : events) {
    sep();
    const double ts_us = static_cast<double>(e.ts_ns - t0) * 1e-3;
    if (e.phase == 'X') {
      const double dur_us = static_cast<double>(e.dur_ns) * 1e-3;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
                   e.name, e.cat, ts_us, dur_us, e.pid, e.tid);
    } else if (e.phase == 'f') {
      // One 1µs anchor slice per hop, so the flow arrows have an enclosing
      // 'X' event to bind to, followed by the flow event itself.
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":1.000,\"pid\":%u,\"tid\":%u,"
                   "\"args\":{\"trace_id\":%u,\"attempt\":%u%s%s}},\n",
                   e.name, ts_us, e.pid, e.tid, e.flow_id, e.flow_hop,
                   e.args.empty() ? "" : ",\"detail\":", e.args.c_str());
      const std::uint32_t seen = flow_seen[e.flow_id]++;
      const std::uint32_t total = flow_total[e.flow_id];
      const char* ph = seen == 0 ? "s" : (seen + 1 == total ? "f" : "t");
      std::fprintf(f,
                   "{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"%s\","
                   "\"id\":%u,\"ts\":%.3f,\"pid\":%u,\"tid\":%u%s",
                   ph, e.flow_id, ts_us, e.pid, e.tid,
                   ph[0] == 'f' ? ",\"bp\":\"e\"" : "");
    } else {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                   "\"ts\":%.3f,\"pid\":%u,\"tid\":%u",
                   e.name, e.cat, ts_us, e.pid, e.tid);
    }
    if (e.phase != 'f' && !e.args.empty())
      std::fprintf(f, ",\"args\":%s", e.args.c_str());
    std::fputc('}', f);
  }
  // Drop markers: a ring that wrapped silently lost spans; make the loss
  // visible in the exported timeline (satellite: no silent span loss).
  for (const auto& [tid, dropped] : collect_drops()) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"trace_buffer_overflow\",\"cat\":\"telemetry\","
                 "\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
                 "\"args\":{\"dropped\":%llu}}",
                 static_cast<double>(t_end - t0) * 1e-3, tid,
                 static_cast<unsigned long long>(dropped));
  }
  std::fputs("\n],\n\"otherData\": {", f);
  first = true;
  for (const auto& [name, value] : other) {
    std::fprintf(f, "%s\n\"%s\": \"%llu\"", first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(value));
    first = false;
  }
  std::fputs("\n}\n}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::vector<FlowTrace> stitch_flows() {
  const std::vector<TraceEvent> events = collect_trace();  // ts-sorted
  std::map<std::uint32_t, FlowTrace> by_id;
  for (const TraceEvent& e : events) {
    if (e.phase != 'f') continue;
    FlowTrace& flow = by_id[e.flow_id];
    flow.id = e.flow_id;
    flow.hops.push_back(
        FlowHop{e.name, e.pid, e.tid, e.ts_ns, e.flow_hop, e.args});
  }
  std::vector<FlowTrace> out;
  out.reserve(by_id.size());
  for (auto& [id, flow] : by_id) out.push_back(std::move(flow));
  return out;
}

bool flow_has_path(const FlowTrace& flow,
                   const std::vector<const char*>& stages) {
  std::size_t want = 0;
  for (const FlowHop& h : flow.hops) {
    if (want < stages.size() && std::strcmp(h.stage, stages[want]) == 0)
      ++want;
  }
  return want == stages.size();
}

bool write_flow_trace(const std::string& path) {
  const std::vector<FlowTrace> flows = stitch_flows();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\n\"flows\": [", f);
  bool first_flow = true;
  for (const FlowTrace& flow : flows) {
    std::fprintf(f, "%s\n{\"id\":%u,\"hops\":[", first_flow ? "" : ",",
                 flow.id);
    first_flow = false;
    bool first_hop = true;
    for (const FlowHop& h : flow.hops) {
      std::fprintf(f,
                   "%s\n  {\"stage\":\"%s\",\"host\":%u,\"tid\":%u,"
                   "\"ts_ns\":%llu,\"attempt\":%u%s%s}",
                   first_hop ? "" : ",", h.stage, h.host, h.tid,
                   static_cast<unsigned long long>(h.ts_ns), h.attempt,
                   h.args.empty() ? "" : ",\"detail\":", h.args.c_str());
      first_hop = false;
    }
    std::fputs("\n]}", f);
  }
  std::fprintf(f, "\n],\n\"dropped\": %llu\n}\n",
               static_cast<unsigned long long>(trace_dropped()));
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace lcr::telemetry

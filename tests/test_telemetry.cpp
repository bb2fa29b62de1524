// Telemetry core: counters under thread_team concurrency, histogram bucket
// boundaries, probe aggregation and RAII unregistration, snapshot-vs-reset
// semantics, span nesting/ordering, and the progress profiler.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "runtime/thread_team.hpp"
#include "telemetry/telemetry.hpp"

namespace lcr {
namespace {

/// A file under the test temp dir that no concurrently running copy of this
/// binary writes (the name carries the pid), removed when the test ends.
struct TempFile {
  TempFile(const std::string& stem, const std::string& ext)
      : path(::testing::TempDir() + "/" + stem + "_" +
             std::to_string(::getpid()) + ext) {}
  ~TempFile() { std::remove(path.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string path;
};

TEST(TelemetryCounter, ConcurrentIncrementsFromThreadTeam) {
  telemetry::Registry reg;
  telemetry::Counter& c = reg.counter("test.hits");

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 100000;
  rt::ThreadTeam team(kThreads);
  team.run([&](std::size_t) {
    for (std::size_t i = 0; i < kPerThread; ++i) c.add();
  });

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.sum("test.hits"), kThreads * kPerThread);

  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryCounter, InterningReturnsSameObject) {
  telemetry::Registry reg;
  telemetry::Counter& a = reg.counter("same");
  telemetry::Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(TelemetryHistogram, BucketBoundaries) {
  using H = telemetry::Histogram;
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i-1].
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(7), 3u);
  EXPECT_EQ(H::bucket_of(8), 4u);
  EXPECT_EQ(H::bucket_of(1023), 10u);
  EXPECT_EQ(H::bucket_of(1024), 11u);
  // The tail bucket absorbs everything that would exceed 63.
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);

  EXPECT_EQ(H::bucket_lo(0), 0u);
  EXPECT_EQ(H::bucket_lo(1), 1u);
  EXPECT_EQ(H::bucket_lo(4), 8u);

  H h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 2u);  // 5 lands in [4, 7]
}

TEST(TelemetryHistogram, ConcurrentRecords) {
  telemetry::Registry reg;
  telemetry::Histogram& h = reg.histogram("test.sizes");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 50000;
  rt::ThreadTeam team(kThreads);
  team.run([&](std::size_t tid) {
    for (std::size_t i = 0; i < kPerThread; ++i) h.record(tid);
  });
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

TEST(TelemetryRegistry, ProbesAggregateAcrossOwners) {
  telemetry::Registry reg;
  // Two "hosts" each own a stats atomic and register it under one name --
  // the registry turns per-host values into a cluster total.
  std::atomic<std::uint64_t> host0{10};
  std::atomic<std::uint64_t> host1{32};
  auto r0 = reg.register_probes({{"wire.sends", &host0}});
  auto r1 = reg.register_probes({{"wire.sends", &host1}});
  EXPECT_EQ(reg.sum("wire.sends"), 42u);

  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("wire.sends"), 42u);

  // Dropping one registration removes only that owner's contribution.
  r0.release();
  EXPECT_EQ(reg.sum("wire.sends"), 32u);
}

TEST(TelemetryRegistry, RegistrationIsMovable) {
  telemetry::Registry reg;
  std::atomic<std::uint64_t> v{7};
  telemetry::Registration outer;
  {
    auto inner = reg.register_probes({{"moved", &v}});
    outer = std::move(inner);
  }  // inner destroyed; the probes must survive in outer
  EXPECT_EQ(reg.sum("moved"), 7u);
  outer.release();
  EXPECT_EQ(reg.sum("moved"), 0u);
}

TEST(TelemetryRegistry, SnapshotVsReset) {
  telemetry::Registry reg;
  std::atomic<std::uint64_t> probe_val{5};
  auto r = reg.register_probes({{"p", &probe_val}});
  reg.counter("c").add(9);
  reg.histogram("h").record(100);

  auto before = reg.snapshot();
  EXPECT_EQ(before.at("p"), 5u);
  EXPECT_EQ(before.at("c"), 9u);
  EXPECT_EQ(before.at("h.count"), 1u);
  EXPECT_EQ(before.at("h.sum"), 100u);

  // snapshot() must not perturb state: take it twice.
  EXPECT_EQ(reg.snapshot(), before);

  // reset() zeroes owned metrics and reaches through probes to their owners.
  reg.reset();
  auto after = reg.snapshot();
  EXPECT_EQ(after.at("p"), 0u);
  EXPECT_EQ(after.at("c"), 0u);
  EXPECT_EQ(after.at("h.count"), 0u);
  EXPECT_EQ(probe_val.load(), 0u);
}

#ifndef LCR_TELEMETRY_DISABLED

TEST(TelemetryTrace, SpanNestingAndOrdering) {
  telemetry::set_enabled(true);
  telemetry::reset_trace();
  {
    telemetry::Span outer("test", "outer", 3);
    {
      telemetry::Span inner("test", "inner", 3);
    }
    telemetry::instant("test", "mark", 3, R"({"k":1})");
  }
  telemetry::set_enabled(false);

  auto events = telemetry::collect_trace();
  ASSERT_EQ(events.size(), 3u);
  // collect_trace sorts by begin timestamp: outer opened first, then inner,
  // then the instant.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "mark");
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_EQ(events[2].args, R"({"k":1})");

  const auto& outer = events[0];
  const auto& inner = events[1];
  EXPECT_EQ(outer.pid, 3u);
  // Proper nesting: inner lies within [outer.begin, outer.end].
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
  // Same thread: one tid for all three.
  EXPECT_EQ(inner.tid, outer.tid);

  telemetry::reset_trace();
  EXPECT_TRUE(telemetry::collect_trace().empty());
}

TEST(TelemetryTrace, DisabledRecordsNothing) {
  telemetry::set_enabled(false);
  telemetry::reset_trace();
  {
    telemetry::Span s("test", "ghost", 0);
    telemetry::instant("test", "ghost_i", 0);
  }
  EXPECT_TRUE(telemetry::collect_trace().empty());
}

TEST(TelemetryTrace, EmitCompleteUsesGivenTimestamps) {
  telemetry::set_enabled(true);
  telemetry::reset_trace();
  telemetry::emit_complete("test", "manufactured", 2, 1000, 250);
  telemetry::set_enabled(false);
  auto events = telemetry::collect_trace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 250u);
  EXPECT_EQ(events[0].pid, 2u);
  telemetry::reset_trace();
}

TEST(TelemetryTrace, ConcurrentSpansFromThreadTeam) {
  telemetry::set_enabled(true);
  telemetry::reset_trace();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 100;
  rt::ThreadTeam team(kThreads);
  team.run([&](std::size_t) {
    for (std::size_t i = 0; i < kSpansPerThread; ++i)
      telemetry::Span s("test", "burst", 0);
  });
  telemetry::set_enabled(false);
  auto events = telemetry::collect_trace();
  EXPECT_EQ(events.size() + telemetry::trace_dropped(),
            kThreads * kSpansPerThread);
  // Sorted by begin timestamp.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  telemetry::reset_trace();
}

TEST(TelemetryProfiler, SplitsWorkAndIdle) {
  telemetry::Registry reg;
  telemetry::set_enabled(true);
  {
    telemetry::ProgressProfiler prof(reg, "test.loop");
    for (int i = 0; i < 5000; ++i) prof.note(i % 4 == 0);
  }
  telemetry::set_enabled(false);
  auto snap = reg.snapshot();
  // 1 in 4 polls did work; counters flush every kSample notes, so totals are
  // exact multiples of the sampling window.
  EXPECT_GT(snap.at("test.loop.polls_work"), 0u);
  EXPECT_GT(snap.at("test.loop.polls_idle"), snap.at("test.loop.polls_work"));
  EXPECT_GT(snap.at("test.loop.work_ns") + snap.at("test.loop.idle_ns"), 0u);
}

#endif  // LCR_TELEMETRY_DISABLED

TEST(TelemetryTrace, ChromeExportIsWellFormed) {
  // Always compiled (export is cold-path); with telemetry disabled the file
  // just has no traceEvents. Validated as strict JSON by the CI step.
  const TempFile tmp("lcr_trace_test", ".json");
  const std::string& path = tmp.path;
  std::map<std::string, std::uint64_t> other{{"k", 1}};
  ASSERT_TRUE(telemetry::write_chrome_trace(path, other));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"otherData\""), std::string::npos);
  EXPECT_NE(content.find("\"k\": \"1\""), std::string::npos);
}

}  // namespace
}  // namespace lcr

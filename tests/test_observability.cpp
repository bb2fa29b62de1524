// Observability layer (DESIGN.md §14): causal message tracing, the anomaly
// flight recorder and the cluster health monitor.
//
//   * health classifiers driven through a private Registry (straggler,
//     retransmit storm, apply backlog, checkpoint interference),
//   * flow stitching / path matching and the flow-trace artifact,
//   * span-ring overflow accounting (no silent span loss),
//   * Chrome export integrity under concurrent writers and across a
//     mid-run kill/revive (strict-JSON parseable, monotone per-thread
//     timestamps, flow events anchored to exported slices),
//   * the end-to-end acceptance run: a seeded lossy fabric under all three
//     backends yields a sampled message whose stitched flow shows
//     post -> drop -> retransmit -> deliver -> apply, and the health report
//     flags the retransmit episode plus the injected straggler host.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/thread_team.hpp"
#include "telemetry/telemetry.hpp"

#include <unistd.h>

namespace lcr {
namespace {

/// A file under the test temp dir that no concurrently running copy of this
/// binary writes: the name carries the pid.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" +
         std::to_string(::getpid()) + ".json";
}

/// This process's own flight-dump directory (dump names repeat across
/// processes).
std::string flight_dir() {
  const std::string dir =
      ::testing::TempDir() + "/lcr_flight_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Minimal strict JSON validator (RFC 8259 grammar, no extensions). The
// exporters hand-print JSON, so the tests parse it back with an independent
// implementation instead of trusting substring checks.
// ---------------------------------------------------------------------------

class JsonCheck {
 public:
  explicit JsonCheck(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r'))
      ++p_;
  }
  bool literal(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end_ - p_) < n ||
        std::strncmp(p_, s, n) != 0)
      return false;
    p_ += n;
    return true;
  }
  bool string_() {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
        if (*p_ == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ >= end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
              return false;
          }
        } else if (std::strchr("\"\\/bfnrt", *p_) == nullptr) {
          return false;
        }
      } else if (static_cast<unsigned char>(*p_) < 0x20) {
        return false;  // raw control character: exporter escaping bug
      }
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    if (p_ >= end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
      return false;
    if (*p_ == '0') {
      ++p_;  // a leading zero stands alone ("01" is not strict JSON)
    } else {
      while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      if (p_ >= end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
        return false;
      while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ >= end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
        return false;
      while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    return p_ > start;
  }
  bool value() {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string_();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (p_ < end_ && *p_ == '}') return ++p_, true;
    for (;;) {
      skip_ws();
      if (!string_()) return false;
      skip_ws();
      if (p_ >= end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != '}') return false;
    ++p_;
    return true;
  }
  bool array() {
    ++p_;  // '['
    skip_ws();
    if (p_ < end_ && *p_ == ']') return ++p_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      break;
    }
    if (p_ >= end_ || *p_ != ']') return false;
    ++p_;
    return true;
  }

  const char* p_;
  const char* end_;
};

bool json_valid(const std::string& text) { return JsonCheck(text).valid(); }

TEST(JsonCheckSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid(R"({"a":[1,2.5,-3e2],"b":"x\n","c":null})"));
  EXPECT_FALSE(json_valid(R"({"a":1,})"));
  EXPECT_FALSE(json_valid(R"({"a":01})"));
  EXPECT_FALSE(json_valid("{\"a\":\"\x01\"}"));
  EXPECT_FALSE(json_valid(R"({"a":1} trailing)"));
}

// ---------------------------------------------------------------------------
// Health classifiers, driven through a private Registry.
// ---------------------------------------------------------------------------

class HealthClassifiers : public ::testing::Test {
 protected:
  /// Reports one complete phase: every host at `base_ns` except `slow_host`
  /// (if >= 0) at `slow_ns`. Host order makes hosts_-1 the last reporter.
  void complete_phase(telemetry::HealthMonitor& mon, std::uint32_t phase,
                      std::uint64_t base_ns, int slow_host = -1,
                      std::uint64_t slow_ns = 0) {
    for (std::uint32_t h = 0; h < kHosts; ++h)
      mon.note_phase(h, phase,
                     static_cast<int>(h) == slow_host ? slow_ns : base_ns,
                     1024);
  }

  static constexpr std::uint32_t kHosts = 4;
  telemetry::Registry reg_;
};

TEST_F(HealthClassifiers, CleanRunHasNoFindings) {
  telemetry::HealthMonitor mon(kHosts, &reg_);
  for (std::uint32_t p = 0; p < 8; ++p) complete_phase(mon, p, 1000000);
  const auto report = mon.diagnose();
  EXPECT_EQ(report.timeline.size(), 8u);
  for (const auto& row : report.timeline) EXPECT_TRUE(row.complete);
  EXPECT_TRUE(report.findings.empty());
}

TEST_F(HealthClassifiers, StragglerIsTheRepeatedMinimum) {
  // The straggler *enters* the sync phase last, so its own measured phase
  // time is the per-round minimum while every peer sits waiting.
  telemetry::HealthMonitor mon(kHosts, &reg_);
  for (std::uint32_t p = 0; p < 6; ++p)
    complete_phase(mon, p, /*base_ns=*/2000000, /*slow_host=*/2,
                   /*slow_ns=*/500000);
  const auto report = mon.diagnose();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "straggler");
  EXPECT_EQ(report.findings[0].host, 2);
  EXPECT_GE(report.findings[0].severity, mon.config().straggler_ratio);
}

TEST_F(HealthClassifiers, FewPhasesNeverFlagStragglers) {
  telemetry::HealthMonitor mon(kHosts, &reg_);
  for (std::uint32_t p = 0; p < 3; ++p)  // below straggler_min_phases
    complete_phase(mon, p, 2000000, 2, 500000);
  EXPECT_TRUE(mon.diagnose().findings.empty());
}

TEST_F(HealthClassifiers, RetransmitStormSpansContiguousPhases) {
  telemetry::HealthMonitor mon(kHosts, &reg_);
  telemetry::Counter& retx = reg_.counter("rel.retransmits");
  complete_phase(mon, 0, 1000000);
  complete_phase(mon, 1, 1000000);
  // Storm across phases 2..4: the delta is sampled when the last host
  // reports, so bump the counter before each phase completes.
  for (std::uint32_t p = 2; p <= 4; ++p) {
    retx.add(2);
    complete_phase(mon, p, 1000000);
  }
  complete_phase(mon, 5, 1000000);
  const auto report = mon.diagnose();
  ASSERT_EQ(report.findings.size(), 1u);
  const auto& f = report.findings[0];
  EXPECT_EQ(f.kind, "retransmit_storm");
  EXPECT_EQ(f.phase_lo, 2u);
  EXPECT_EQ(f.phase_hi, 4u);
  EXPECT_DOUBLE_EQ(f.severity, 6.0);
}

TEST_F(HealthClassifiers, IsolatedRetransmitsBelowThresholdStaySilent) {
  telemetry::HealthMonitor mon(kHosts, &reg_);
  telemetry::Counter& retx = reg_.counter("rel.retransmits");
  complete_phase(mon, 0, 1000000);
  retx.add(2);  // single blip < storm_retransmits, not contiguous
  complete_phase(mon, 1, 1000000);
  complete_phase(mon, 2, 1000000);
  EXPECT_TRUE(mon.diagnose().findings.empty());
}

TEST_F(HealthClassifiers, ApplyBacklogFromStashDrops) {
  telemetry::HealthMonitor mon(kHosts, &reg_);
  complete_phase(mon, 0, 1000000);
  reg_.counter("sync.stash_drops").add(3);
  complete_phase(mon, 1, 1000000);
  const auto report = mon.diagnose();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "apply_backlog");
  EXPECT_EQ(report.findings[0].phase_lo, 1u);
  EXPECT_DOUBLE_EQ(report.findings[0].severity, 3.0);
}

TEST_F(HealthClassifiers, CheckpointInterferenceNeedsBothSignals) {
  telemetry::HealthMonitor mon(kHosts, &reg_);
  telemetry::Counter& stage = reg_.counter("ckpt.stage_ns");
  for (std::uint32_t p = 0; p < 4; ++p) complete_phase(mon, p, 1000000);
  // Checkpoint activity + 3x the quiet median: flagged.
  stage.add(700000);
  complete_phase(mon, 4, 3000000);
  // Checkpoint activity but no slowdown: not flagged.
  stage.add(700000);
  complete_phase(mon, 5, 1000000);
  const auto report = mon.diagnose();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "checkpoint_interference");
  EXPECT_EQ(report.findings[0].phase_lo, 4u);
  EXPECT_GE(report.findings[0].severity, mon.config().ckpt_ratio);
}

TEST_F(HealthClassifiers, BaselineExcludesPreMonitorTraffic) {
  // Warm-up retransmissions from before the monitor existed must not be
  // attributed to the first phase.
  reg_.counter("rel.retransmits").add(100);
  telemetry::HealthMonitor mon(kHosts, &reg_);
  for (std::uint32_t p = 0; p < 4; ++p) complete_phase(mon, p, 1000000);
  const auto report = mon.diagnose();
  for (const auto& row : report.timeline) EXPECT_EQ(row.d_retransmits, 0u);
  EXPECT_TRUE(report.findings.empty());
}

TEST_F(HealthClassifiers, WriteJsonIsStrictJson) {
  telemetry::HealthMonitor mon(kHosts, &reg_);
  telemetry::Counter& retx = reg_.counter("rel.retransmits");
  for (std::uint32_t p = 0; p < 5; ++p) {
    if (p >= 1 && p <= 2) retx.add(4);
    complete_phase(mon, p, 2000000, /*slow_host=*/1, /*slow_ns=*/500000);
  }
  const std::string path = temp_path("lcr_health_test");
  ASSERT_TRUE(mon.write_json(path));
  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"timeline\""), std::string::npos);
  EXPECT_NE(text.find("\"retransmit_storm\""), std::string::npos);
  EXPECT_NE(text.find("\"straggler\""), std::string::npos);
  std::remove(path.c_str());
}

#ifndef LCR_TELEMETRY_DISABLED

// ---------------------------------------------------------------------------
// Flow stitching and sampling.
// ---------------------------------------------------------------------------

TEST(FlowStitching, HopsGroupByIdInTimestampOrder) {
  telemetry::set_enabled(true);
  telemetry::reset_trace();
  // Two messages interleaved across "hosts"; 42 is dropped once.
  telemetry::hop("encode", 0, 42, 0, R"({"dst":1})");
  telemetry::hop("post", 0, 42, 0);
  telemetry::hop("encode", 1, 77, 0);
  telemetry::hop("drop", 0, 42, 0);
  telemetry::hop("post", 1, 77, 0);
  telemetry::hop("retransmit", 0, 42, 1);
  telemetry::hop("post", 0, 42, 1);
  telemetry::hop("deliver", 1, 42, 1);
  telemetry::hop("deliver", 0, 77, 0);
  telemetry::hop("apply", 1, 42, 1);
  telemetry::hop("unsampled", 0, 0, 0);  // id 0 must never be recorded
  telemetry::set_enabled(false);

  const auto flows = telemetry::stitch_flows();
  ASSERT_EQ(flows.size(), 2u);
  const auto& f42 = flows[0].id == 42 ? flows[0] : flows[1];
  const auto& f77 = flows[0].id == 77 ? flows[0] : flows[1];
  ASSERT_EQ(f42.id, 42u);
  ASSERT_EQ(f77.id, 77u);
  ASSERT_EQ(f42.hops.size(), 7u);
  EXPECT_EQ(f77.hops.size(), 3u);
  for (std::size_t i = 1; i < f42.hops.size(); ++i)
    EXPECT_GE(f42.hops[i].ts_ns, f42.hops[i - 1].ts_ns);
  EXPECT_STREQ(f42.hops.front().stage, "encode");
  EXPECT_EQ(f42.hops.front().args, R"({"dst":1})");
  EXPECT_EQ(f42.hops.back().attempt, 1u);

  EXPECT_TRUE(telemetry::flow_has_path(
      f42, {"post", "drop", "retransmit", "deliver", "apply"}));
  EXPECT_FALSE(telemetry::flow_has_path(f42, {"apply", "post"}));
  EXPECT_FALSE(telemetry::flow_has_path(f77, {"drop"}));
  EXPECT_TRUE(telemetry::flow_has_path(f77, {}));

  const std::string path = temp_path("lcr_flow_test");
  ASSERT_TRUE(telemetry::write_flow_trace(path));
  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"stage\":\"retransmit\""), std::string::npos);
  std::remove(path.c_str());
  telemetry::reset_trace();
}

TEST(FlowSampling, DeterministicSeededDecision) {
  telemetry::set_enabled(true);
  telemetry::set_trace_sampling(8, 0xF00Du);
  std::size_t sampled = 0;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const std::uint32_t id = telemetry::sample_trace_id(1, 7, i);
    EXPECT_EQ(id, telemetry::sample_trace_id(1, 7, i));  // pure function
    if (id != 0) ++sampled;
  }
  // ~1/8 expected; allow a generous band for the hash.
  EXPECT_GT(sampled, 4096u / 32);
  EXPECT_LT(sampled, 4096u / 2);

  // A different seed samples a different subset.
  telemetry::set_trace_sampling(8, 0xBEEFu);
  std::size_t agree = 0;
  telemetry::set_trace_sampling(8, 0xF00Du);
  for (std::uint32_t i = 0; i < 256; ++i) {
    const bool a = telemetry::sample_trace_id(1, 7, i) != 0;
    telemetry::set_trace_sampling(8, 0xBEEFu);
    const bool b = telemetry::sample_trace_id(1, 7, i) != 0;
    telemetry::set_trace_sampling(8, 0xF00Du);
    if (a == b) ++agree;
  }
  EXPECT_LT(agree, 256u);

  telemetry::set_trace_sampling(0, 0);
  EXPECT_EQ(telemetry::sample_trace_id(1, 7, 3), 0u);  // sampling off
  telemetry::set_enabled(false);
  EXPECT_EQ(telemetry::trace_sample_every(), 0u);
}

// ---------------------------------------------------------------------------
// Ring overflow: span loss must be counted and visible in the export.
// ---------------------------------------------------------------------------

TEST(TraceRingOverflow, DropsAreCountedAndMarkedInExport) {
  telemetry::set_enabled(true);
  telemetry::reset_trace();
  ASSERT_EQ(telemetry::trace_dropped(), 0u);
  // One thread's ring holds 2^16 events; push past it.
  constexpr std::size_t kEvents = (1u << 16) + 5000;
  for (std::size_t i = 0; i < kEvents; ++i)
    telemetry::instant("test", "flood", 0);
  telemetry::set_enabled(false);

  EXPECT_GE(telemetry::trace_dropped(), 5000u);
  EXPECT_EQ(telemetry::collect_trace().size() + telemetry::trace_dropped(),
            kEvents);

  // The Chrome export carries an explicit drop marker so an overflowed
  // trace can never be mistaken for a complete one...
  const std::string path = temp_path("lcr_overflow_test");
  ASSERT_TRUE(telemetry::write_chrome_trace(path));
  std::string text = slurp(path);
  EXPECT_NE(text.find("\"trace_buffer_overflow\""), std::string::npos);
  // ...and the flow artifact reports the same loss.
  ASSERT_TRUE(telemetry::write_flow_trace(path));
  text = slurp(path);
  EXPECT_EQ(text.find("\"dropped\": 0"), std::string::npos);
  std::remove(path.c_str());

  // reset_trace clears the counter along with the rings.
  telemetry::reset_trace();
  EXPECT_EQ(telemetry::trace_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome export integrity under concurrent writers.
// ---------------------------------------------------------------------------

TEST(ChromeExportIntegrity, ConcurrentWritersProduceStrictJson) {
  telemetry::set_enabled(true);
  telemetry::reset_trace();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 200;
  rt::ThreadTeam team(kThreads);
  team.run([&](std::size_t t) {
    const auto host = static_cast<std::uint32_t>(t % 4);
    for (std::size_t i = 0; i < kIters; ++i) {
      telemetry::Span s("test", "work", host);
      telemetry::instant("test", "tick", host, R"({"i":1})");
      const auto id = static_cast<std::uint32_t>(t * kIters + i + 1);
      telemetry::hop("post", host, id, 0, R"({"dst":2})");
      telemetry::hop("deliver", (host + 1) % 4, id, 0);
    }
  });
  telemetry::set_enabled(false);

  const auto events = telemetry::collect_trace();
  EXPECT_EQ(events.size() + telemetry::trace_dropped(), kThreads * kIters * 4);
  // Monotone per-thread timestamps (collect_trace sorts globally, so the
  // per-tid subsequences must be sorted too; verify against each tid's
  // last-seen timestamp).
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (const auto& e : events) {
    auto [it, inserted] = last_ts.try_emplace(e.tid, e.ts_ns);
    if (!inserted) {
      EXPECT_GE(e.ts_ns, it->second);
      it->second = e.ts_ns;
    }
  }

  const std::string path = temp_path("lcr_concurrent_test");
  ASSERT_TRUE(telemetry::write_chrome_trace(path, {{"hosts", 4}}));
  const std::string text = slurp(path);
  ASSERT_TRUE(json_valid(text)) << "export is not strict JSON";

  // Every flow arrow references an exported anchor slice: the exporter emits
  // exactly one enclosing 'X' anchor (carrying the trace id) per hop, and
  // every flow id opens with "s" and terminates with "f".
  const auto count = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  std::size_t hop_events = 0;
  std::set<std::uint32_t> flow_ids;
  for (const auto& e : events)
    if (e.phase == 'f') {
      ++hop_events;
      flow_ids.insert(e.flow_id);
    }
  EXPECT_EQ(count("\"trace_id\":"), hop_events);
  EXPECT_EQ(count("\"ph\":\"s\""), flow_ids.size());
  EXPECT_EQ(count("\"ph\":\"f\""), flow_ids.size());
  EXPECT_EQ(count("\"ph\":\"s\"") + count("\"ph\":\"t\"") +
                count("\"ph\":\"f\""),
            hop_events);
  std::remove(path.c_str());
  telemetry::reset_trace();
}

// ---------------------------------------------------------------------------
// Flight recorder: ring semantics and dump bundles.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RecordSnapshotDump) {
  telemetry::flight_reset();
  telemetry::flight_set_dir("");  // disarmed: triggers must be no-ops
  telemetry::flight_record(0, "test.alpha", R"({"k":1})");
  telemetry::flight_record(1, "test.beta");
  EXPECT_FALSE(telemetry::flight_dump("disarmed"));
  EXPECT_EQ(telemetry::flight_dumps(), 0u);

  const auto events = telemetry::flight_snapshot();
  ASSERT_GE(events.size(), 2u);
  const auto& a = events[events.size() - 2];
  const auto& b = events[events.size() - 1];
  EXPECT_EQ(a.kind, "test.alpha");
  EXPECT_EQ(a.detail, R"({"k":1})");
  EXPECT_EQ(b.kind, "test.beta");
  EXPECT_EQ(b.host, 1u);
  EXPECT_LE(a.ts_ns, b.ts_ns);

  telemetry::flight_set_dir(flight_dir());
  std::string path;
  ASSERT_TRUE(telemetry::flight_dump("unit_test", &path));
  EXPECT_EQ(telemetry::flight_dumps(), 1u);
  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("unit_test"), std::string::npos);
  EXPECT_NE(text.find("test.alpha"), std::string::npos);
  std::remove(path.c_str());
  telemetry::flight_set_dir("");
  telemetry::flight_reset();
}

TEST(FlightRecorder, RingKeepsNewestUnderOverflow) {
  telemetry::flight_reset();
  // 4096-slot ring: write 3x its capacity; the survivors must be the newest
  // writes, oldest first.
  for (std::uint32_t i = 0; i < 3 * 4096; ++i)
    telemetry::flight_record(i, "test.flood");
  const auto events = telemetry::flight_snapshot();
  ASSERT_GT(events.size(), 0u);
  ASSERT_LE(events.size(), 4096u);
  EXPECT_EQ(events.back().host, 3u * 4096 - 1);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_EQ(events[i].host, events[i - 1].host + 1);
  telemetry::flight_reset();
  EXPECT_TRUE(telemetry::flight_snapshot().empty());
}

// ---------------------------------------------------------------------------
// End-to-end: traced lossy run, all three backends (acceptance criterion).
// ---------------------------------------------------------------------------

class TracedLossyRun : public ::testing::TestWithParam<comm::BackendKind> {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::set_trace_sampling(1, 0x5EED);  // trace every message
    telemetry::reset_trace();
  }
  void TearDown() override {
    telemetry::set_trace_sampling(0, 0);
    telemetry::set_enabled(false);
    telemetry::reset_trace();
  }
};

TEST_P(TracedLossyRun, FlowShowsDropRetransmitDeliverApply) {
  // rmat(9) with a 20% loss rate: large enough that every backend - even
  // mpi_rma, which aggregates to one payload chunk per (src, dst) per phase -
  // sees the fault roll eat at least one payload-bearing chunk.
  graph::Csr g = graph::rmat(9, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.backend = GetParam();
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.source = bench::choose_source(g);
  spec.fabric = fabric::test_config();
  spec.fabric.fault.seed = 0xC0FFEE;
  spec.fabric.fault.drop_rate = 0.20;
  // Injected straggler: host 2 burns 30ms at the top of every round - well
  // above the retransmit RTOs the lossy fabric induces on its peers AND the
  // scheduling noise of a parallel ctest run - so they wait in-phase and
  // the health monitor must name it.
  spec.fabric.fault.slow_host = 2;
  spec.fabric.fault.slow_round_ns = 30000000;
  if (GetParam() == comm::BackendKind::Lci)
    spec.health_out = temp_path("lcr_e2e_health");

  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  EXPECT_GT(result.telemetry.at("rel.retransmits"), 0u)
      << "lossy fabric never retransmitted";

  // Acceptance: at least one sampled message's stitched cross-host flow
  // shows the full post -> drop -> retransmit -> deliver -> apply life.
  const auto flows = telemetry::stitch_flows();
  ASSERT_FALSE(flows.empty()) << "no sampled flows recorded";
  std::size_t full_path = 0;
  std::size_t cross_host = 0;
  for (const auto& flow : flows) {
    if (telemetry::flow_has_path(
            flow, {"post", "drop", "retransmit", "deliver", "apply"}))
      ++full_path;
    for (std::size_t i = 1; i < flow.hops.size(); ++i)
      if (flow.hops[i].host != flow.hops[0].host) {
        ++cross_host;
        break;
      }
  }
  std::ostringstream seen;
  for (const auto& flow : flows) {
    seen << flow.id << ":";
    for (const auto& h : flow.hops) seen << " " << h.stage;
    seen << "\n";
  }
  EXPECT_GT(full_path, 0u)
      << "no flow shows the drop->retransmit recovery path across "
      << flows.size() << " sampled flows:\n"
      << seen.str();
  EXPECT_GT(cross_host, 0u) << "no flow crossed hosts";

  // Health report: the drop-storm and the injected straggler host.
  bool storm = false;
  bool straggler_host2 = false;
  for (const auto& f : result.health.findings) {
    if (f.kind == "retransmit_storm") storm = true;
    if (f.kind == "straggler" && f.host == 2) straggler_host2 = true;
    if (f.kind == "straggler") {
      EXPECT_EQ(f.host, 2);
    }
  }
  EXPECT_TRUE(storm) << "retransmit episode not flagged";
  EXPECT_TRUE(straggler_host2) << "straggler host 2 not flagged";

  // health.json artifact (one backend is enough for the file-shape check).
  if (!spec.health_out.empty()) {
    const std::string text = slurp(spec.health_out);
    EXPECT_TRUE(json_valid(text)) << text;
    EXPECT_NE(text.find("\"retransmit_storm\""), std::string::npos);
    EXPECT_NE(text.find("\"straggler\""), std::string::npos);
    std::remove(spec.health_out.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TracedLossyRun,
                         ::testing::Values(comm::BackendKind::Lci,
                                           comm::BackendKind::MpiProbe,
                                           comm::BackendKind::MpiRma),
                         [](const auto& info) {
                           switch (info.param) {
                             case comm::BackendKind::Lci: return "lci";
                             case comm::BackendKind::MpiProbe:
                               return "mpi_probe";
                             default: return "mpi_rma";
                           }
                         });

// ---------------------------------------------------------------------------
// Straggler injection under the ULT scheduler: the slow host's delay must
// not stall the hosts that share its worker. A bare spin held the worker, a
// host queued behind it entered the phase late as well, and the monitor
// named no straggler or the wrong one.
// ---------------------------------------------------------------------------

struct UltStragglerCase {
  comm::BackendKind backend;
  std::size_t workers;
  const char* name;
};

void PrintTo(const UltStragglerCase& c, std::ostream* os) { *os << c.name; }

class UltStraggler : public ::testing::TestWithParam<UltStragglerCase> {};

TEST_P(UltStraggler, InjectedSlowHostIsNamed) {
  graph::Csr g = graph::rmat(9, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.backend = GetParam().backend;
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.source = bench::choose_source(g);
  spec.host_sched = "ult";
  spec.ult_workers = GetParam().workers;
  spec.fabric.fault.slow_host = 2;
  spec.fabric.fault.slow_round_ns = 30000000;

  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  std::vector<int> named;
  for (const auto& f : result.health.findings)
    if (f.kind == "straggler") named.push_back(f.host);
  EXPECT_EQ(named, std::vector<int>{2});
}

INSTANTIATE_TEST_SUITE_P(
    Sched, UltStraggler,
    ::testing::Values(UltStragglerCase{comm::BackendKind::Lci, 1, "lci_w1"},
                      UltStragglerCase{comm::BackendKind::MpiRma, 2,
                                       "mpi_rma_w2"}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Round driver spans: the termination collective of every round is spanned
// on both engines, so no host's round ends in untraced time.
// ---------------------------------------------------------------------------

class RoundDriverSpans : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundDriverSpans, OneTerminateSpanPerRoundPerHost) {
  telemetry::set_enabled(true);
  telemetry::reset_trace();
  graph::Csr g = graph::rmat(8, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.engine = GetParam();
  spec.hosts = 4;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  const auto events = telemetry::collect_trace();
  telemetry::set_enabled(false);
  telemetry::reset_trace();

  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  ASSERT_GT(result.rounds, 1u);
  std::vector<std::uint64_t> terminate(4, 0);
  std::vector<std::uint64_t> round_tick(4, 0);
  for (const auto& e : events) {
    if (std::strcmp(e.cat, "app") != 0 || e.pid >= 4) continue;
    if (std::strcmp(e.name, "terminate") == 0) ++terminate[e.pid];
    if (std::strcmp(e.name, "round_tick") == 0) ++round_tick[e.pid];
  }
  for (std::uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(terminate[h], result.rounds) << "host " << h;
    EXPECT_EQ(round_tick[h], result.rounds) << "host " << h;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, RoundDriverSpans,
                         ::testing::Values("abelian", "gemini"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Mid-run kill/revive: export integrity and flight-recorder triggers.
// ---------------------------------------------------------------------------

TEST(KillReviveTrace, ExportStaysWellFormedAndRecorderFires) {
  telemetry::set_enabled(true);
  telemetry::set_trace_sampling(4, 0x5EED);
  telemetry::reset_trace();
  telemetry::flight_reset();
  telemetry::flight_set_dir(flight_dir());

  graph::Csr g = graph::rmat(7, 8.0);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.hosts = 3;
  spec.backend = comm::BackendKind::Lci;
  spec.pagerank_iters = 12;
  spec.ckpt_interval = 2;
  spec.fabric = fabric::test_config();
  spec.fabric.fault.kill_host = 1;
  spec.fabric.fault.kill_at_round = 6;
  const auto result = bench::run_app(g, spec);

  EXPECT_EQ(result.kills, 1u);
  EXPECT_GE(result.recoveries, 1u);
  // The kill and the rollback both trip flight dumps (failure_pending and
  // the recovery leader's trigger).
  EXPECT_GE(telemetry::flight_dumps(), 2u);
  // Rolled-back rounds are accounted: died at round 6, resumed from the
  // last stable checkpoint before it.
  const auto rr = result.telemetry.find("ckpt.rollback_rounds");
  ASSERT_NE(rr, result.telemetry.end());
  EXPECT_GE(rr->second, 1u);
  EXPECT_GT(result.telemetry.at("ckpt.seal_ns"), 0u);
  EXPECT_GT(result.telemetry.at("member.kills"), 0u);
  EXPECT_GT(result.telemetry.at("member.readmits"), 0u);

  // A trace spanning engine teardown + re-admission must still export as
  // strict JSON with anchored flow events.
  const std::string path = temp_path("lcr_killrevive_test");
  ASSERT_TRUE(telemetry::write_chrome_trace(path, result.telemetry));
  EXPECT_TRUE(json_valid(slurp(path)));
  std::remove(path.c_str());
  ASSERT_TRUE(telemetry::write_flow_trace(path));
  EXPECT_TRUE(json_valid(slurp(path)));
  std::remove(path.c_str());

  telemetry::flight_set_dir("");
  telemetry::flight_reset();
  std::filesystem::remove_all(flight_dir());
  telemetry::set_trace_sampling(0, 0);
  telemetry::set_enabled(false);
  telemetry::reset_trace();
}

#endif  // LCR_TELEMETRY_DISABLED

}  // namespace
}  // namespace lcr

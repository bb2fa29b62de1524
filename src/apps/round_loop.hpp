// One BSP round driver for every app on both engines (DESIGN.md §13).
//
// An app is an init, a per-round step, a sync plan and a termination rule
// (paper §II). The driver owns the rest of the round: Cluster::round_tick
// (scheduled kills fire there), checkpoint save and restore of the state
// registered with persist(), the app/round, app/round_tick and
// app/terminate spans, compute() sections booked into the engine's
// compute_s, and the termination collective over the step's local work.
// A round is step -> termination -> finish; an app whose collective sits
// mid-round (kcore) puts the rest of the round in `finish`.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "abelian/cluster.hpp"
#include "runtime/bitset.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/timer.hpp"
#include "telemetry/trace.hpp"

namespace lcr::apps {

class RoundLoop {
 public:
  static constexpr std::uint64_t kNoCap =
      std::numeric_limits<std::uint64_t>::max();

  /// Step result that is min-reduced instead of summed.
  struct Min {
    std::uint64_t value;
  };

  RoundLoop(abelian::Cluster& cluster, int host, const char* category,
            double& compute_s, rt::RecoveryCtx* rec)
      : cluster_(cluster),
        host_(host),
        category_(category),
        compute_s_(compute_s),
        rec_(rec) {}

  /// Registers state that survives a rollback. Sizes must stay fixed for the
  /// run; everything not registered must be rebuilt by the step each round.
  template <typename T>
  void persist(std::vector<T>& v) {
    state_.push_back({v.data(), v.size() * sizeof(T), v.data(), nullptr});
  }
  void persist(rt::ConcurrentBitset& bits) {
    static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));
    state_.push_back({bits.words_data(),
                      bits.num_words() * sizeof(std::uint64_t), nullptr,
                      &bits});
  }
  void persist(std::uint64_t& value) {
    state_.push_back({&value, sizeof(value), &value, nullptr});
  }

  /// Runs `f` as a compute section: a `<category>/compute` span, its wall
  /// time added to the engine's compute_s.
  template <typename F>
  void compute(F&& f) {
    rt::Timer timer;
    {
      telemetry::Span span(category_, "compute", span_pid());
      f();
    }
    compute_s_ += timer.elapsed_s();
  }

  /// Runs rounds until `done(global work)` or `max_rounds`. `step()` returns
  /// this host's work (std::uint64_t or double: summed; Min: min-reduced);
  /// `finish()` completes a round that did not terminate.
  template <typename Step, typename Done, typename Finish>
  void run(std::uint64_t max_rounds, Step&& step, Done&& done,
           Finish&& finish) {
    for (std::uint64_t round = restore(); round < max_rounds; ++round) {
      {
        // The state is quiescent at the boundary: staging needs no locks.
        // round_tick stages it after the liveness check (a dead host never
        // stages) and before the peer-failure check.
        telemetry::Span span("app", "round_tick", span_pid());
        cluster_.round_tick(host_, static_cast<std::int64_t>(round),
                            [this, round] {
                              if (checkpoint_due(round)) save(round);
                            });
      }
      telemetry::Span round_span("app", "round", span_pid());
      const auto local = step();
      const auto global = [&] {
        telemetry::Span span("app", "terminate", span_pid());
        return reduce(local);
      }();
      if (done(global)) break;
      finish();
    }
  }

  template <typename Step, typename Done>
  void run(std::uint64_t max_rounds, Step&& step, Done&& done) {
    run(max_rounds, step, done, [] {});
  }

  /// Stops when no host has work left.
  template <typename Step>
  void run(std::uint64_t max_rounds, Step&& step) {
    run(max_rounds, step, [](auto global) { return global == 0; });
  }

 private:
  struct State {
    const void* data;
    std::size_t bytes;
    void* restore_to;            // plain bytes: restored by memcpy
    rt::ConcurrentBitset* bits;  // atomic words: restored via set_word
  };

  std::uint32_t span_pid() const { return static_cast<std::uint32_t>(host_); }

  std::uint64_t reduce(std::uint64_t local) {
    return cluster_.oob_allreduce_sum(local);
  }
  double reduce(double local) { return cluster_.oob_allreduce_sum(local); }
  std::uint64_t reduce(Min local) {
    return cluster_.oob_allreduce_min(local.value);
  }

  bool checkpoint_due(std::uint64_t round) const {
    return rec_ != nullptr && rec_->interval > 0 &&
           round % static_cast<std::uint64_t>(rec_->interval) == 0 &&
           round != resumed_at_;
  }

  void save(std::uint64_t round) {
    std::vector<rt::CheckpointStore::View> views;
    views.reserve(state_.size());
    for (const State& s : state_) views.push_back({s.data, s.bytes});
    rec_->store->save(rec_->host, static_cast<std::int64_t>(round), views);
  }

  /// Reloads the registered state from the rollback checkpoint and returns
  /// the round to re-enter at; 0 (start from the app's init) when there is
  /// nothing to resume or the checkpoint does not match the registration.
  std::uint64_t restore() {
    if (rec_ == nullptr || !rec_->resume || rec_->resume_round < 0) return 0;
    std::vector<std::vector<std::uint8_t>> arrays;
    if (!rec_->store->load(rec_->host, rec_->resume_round, arrays) ||
        arrays.size() != state_.size())
      return 0;
    for (std::size_t i = 0; i < state_.size(); ++i)
      if (arrays[i].size() != state_[i].bytes) return 0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      const State& s = state_[i];
      if (s.bits != nullptr) {
        for (std::size_t wi = 0; wi < s.bits->num_words(); ++wi) {
          std::uint64_t word;
          std::memcpy(&word, arrays[i].data() + wi * sizeof(word),
                      sizeof(word));
          s.bits->set_word(wi, word);
        }
      } else if (s.bytes > 0) {
        std::memcpy(s.restore_to, arrays[i].data(), s.bytes);
      }
    }
    resumed_at_ = static_cast<std::uint64_t>(rec_->resume_round);
    return resumed_at_;
  }

  abelian::Cluster& cluster_;
  int host_;
  const char* category_;
  double& compute_s_;
  rt::RecoveryCtx* rec_;
  std::vector<State> state_;
  std::uint64_t resumed_at_ = kNoCap;
};

}  // namespace lcr::apps

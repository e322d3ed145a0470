// Per-target circuit breaker (closed / open / half-open) used by the
// HopsFS client to evict a grey-slow or dead namenode from rotation and
// probe it before readmission.
//
// The classic state machine: consecutive failures trip the breaker open;
// after open_interval it admits exactly one half-open probe; probe success
// closes it, probe failure re-opens it (with the interval re-armed).
//
// Target selection must not consume probe slots of candidates it merely
// *considers*, so the API splits a const `CanAttempt(now)` (filtering)
// from `OnPicked(now)` (commits the half-open probe slot once a target is
// actually chosen).
#pragma once

#include <cstdint>

#include "util/time.h"

namespace repro::resilience {

struct CircuitBreakerConfig {
  int failure_threshold = 3;           // consecutive failures to trip open
  Nanos open_interval = 0;             // time open before half-open probe
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() : CircuitBreaker(CircuitBreakerConfig{}) {}
  explicit CircuitBreaker(const CircuitBreakerConfig& config)
      : config_(config) {}

  // May the caller route a request to this target right now? Const:
  // filtering a candidate list has no side effects.
  bool CanAttempt(Nanos now) const;

  // The caller committed to this target. In the open state past the
  // interval this consumes the single half-open probe slot.
  void OnPicked(Nanos now);

  void OnSuccess();
  void OnFailure(Nanos now);

  State state() const { return state_; }
  int64_t transitions() const { return transitions_; }

 private:
  void MoveTo(State next);

  CircuitBreakerConfig config_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  Nanos opened_at_ = 0;
  bool probe_inflight_ = false;
  int64_t transitions_ = 0;
};

}  // namespace repro::resilience

#include "resilience/circuit_breaker.h"

namespace repro::resilience {

bool CircuitBreaker::CanAttempt(Nanos now) const {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      // Eligible for a half-open probe once the interval elapses.
      return now - opened_at_ >= config_.open_interval;
    case State::kHalfOpen:
      // One probe at a time.
      return !probe_inflight_;
  }
  return true;
}

void CircuitBreaker::OnPicked(Nanos now) {
  if (state_ == State::kOpen && now - opened_at_ >= config_.open_interval) {
    MoveTo(State::kHalfOpen);
  }
  if (state_ == State::kHalfOpen) probe_inflight_ = true;
}

void CircuitBreaker::OnSuccess() {
  consecutive_failures_ = 0;
  probe_inflight_ = false;
  if (state_ != State::kClosed) MoveTo(State::kClosed);
}

void CircuitBreaker::OnFailure(Nanos now) {
  probe_inflight_ = false;
  if (state_ == State::kHalfOpen) {
    // Failed probe: back to open, interval re-armed.
    opened_at_ = now;
    MoveTo(State::kOpen);
    return;
  }
  if (state_ == State::kClosed &&
      ++consecutive_failures_ >= config_.failure_threshold) {
    opened_at_ = now;
    MoveTo(State::kOpen);
  }
}

void CircuitBreaker::MoveTo(State next) {
  if (state_ == next) return;
  state_ = next;
  ++transitions_;
  if (next == State::kClosed) consecutive_failures_ = 0;
}

}  // namespace repro::resilience

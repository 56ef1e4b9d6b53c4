// An injectable monotonic time source for timeout logic. Production code
// reads Clock::Real() (std::chrono::steady_clock); tests hand in a
// ManualClock and step it, so deadline behaviour is checked on virtual time
// instead of by sleeping through real timeouts.
#ifndef MEMSENTRY_SRC_BASE_CLOCK_H_
#define MEMSENTRY_SRC_BASE_CLOCK_H_

#include <atomic>
#include <chrono>

namespace memsentry::base {

class Clock {
 public:
  virtual ~Clock() = default;

  // Seconds on a monotonic timeline with an arbitrary origin.
  virtual double Now() const = 0;

  // The process-wide steady clock.
  static const Clock& Real();
};

class SteadyClock final : public Clock {
 public:
  double Now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

inline const Clock& Clock::Real() {
  static const SteadyClock clock;
  return clock;
}

// A clock that only moves when told to. Safe to read from one thread while
// another advances it.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(double start = 0) : now_(start) {}

  double Now() const override { return now_.load(std::memory_order_acquire); }
  void Advance(double seconds) {
    now_.store(now_.load(std::memory_order_relaxed) + seconds, std::memory_order_release);
  }

 private:
  std::atomic<double> now_;
};

}  // namespace memsentry::base

#endif  // MEMSENTRY_SRC_BASE_CLOCK_H_

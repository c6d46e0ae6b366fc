// Simulation time.
//
// Time is kept as a signed 64-bit count of nanoseconds, which gives exact,
// platform-independent event ordering (a double-based clock, like ns-2's,
// accumulates rounding that can flip the order of near-simultaneous events
// between compilers). Duration and TimePoint are distinct types so that
// "add two timestamps" is a compile error.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>

namespace tcppr::sim {

class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration nanos(std::int64_t n) { return Duration(n); }
  static constexpr Duration micros(double u) {
    return Duration(static_cast<std::int64_t>(u * 1e3));
  }
  static constexpr Duration millis(double m) {
    return Duration(static_cast<std::int64_t>(m * 1e6));
  }
  static constexpr Duration seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e9));
  }
  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration infinite() {
    return Duration(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t as_nanos() const { return ns_; }
  constexpr double as_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double as_millis() const { return static_cast<double>(ns_) * 1e-6; }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration(a.ns_ + b.ns_);
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration(a.ns_ - b.ns_);
  }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration(static_cast<std::int64_t>(static_cast<double>(a.ns_) * k));
  }
  friend constexpr Duration operator*(double k, Duration a) { return a * k; }
  friend constexpr Duration operator/(Duration a, double k) {
    return Duration(static_cast<std::int64_t>(static_cast<double>(a.ns_) / k));
  }
  constexpr Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

class TimePoint {
 public:
  constexpr TimePoint() = default;

  static constexpr TimePoint origin() { return TimePoint(0); }
  static constexpr TimePoint from_seconds(double s) {
    return TimePoint(static_cast<std::int64_t>(s * 1e9));
  }
  static constexpr TimePoint from_nanos(std::int64_t ns) {
    return TimePoint(ns);
  }
  static constexpr TimePoint max() {
    return TimePoint(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t as_nanos() const { return ns_; }
  constexpr double as_seconds() const { return static_cast<double>(ns_) * 1e-9; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    // Saturate instead of overflowing when adding to/near the sentinel max.
    if (d.as_nanos() >= 0 &&
        t.ns_ > std::numeric_limits<std::int64_t>::max() - d.as_nanos()) {
      return TimePoint::max();
    }
    return TimePoint(t.ns_ + d.as_nanos());
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint(t.ns_ - d.as_nanos());
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::nanos(a.ns_ - b.ns_);
  }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

}  // namespace tcppr::sim

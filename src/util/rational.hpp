/// \file rational.hpp
/// Exact rational arithmetic over 128-bit integers with *sticky overflow*
/// degradation.
///
/// Feasibility analysis compares quantities of the form
///   Sigma_i  C_i * (I - D_i + T_i) / T_i   vs   I
/// exactly. Numerators/denominators stay well inside 128 bits for
/// realistic task sets (periods <= 2^31, intervals <= 2^50, <= a few
/// hundred tasks after gcd normalization). If a computation *would*
/// overflow, the Rational marks itself inexact instead of producing a
/// wrong value; comparisons against inexact rationals answer
/// `Ordering::Unknown`, and callers must act conservatively. A `double`
/// shadow value is maintained through overflow so diagnostics stay
/// meaningful.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "util/math.hpp"

namespace edfkit {

/// Tri-state comparison outcome used when exactness may have been lost.
enum class Ordering : std::uint8_t { Less, Equal, Greater, Unknown };

/// Exact rational p/q (q > 0, gcd(p,q) == 1) with sticky-overflow fallback.
class Rational {
 public:
  /// Zero.
  constexpr Rational() noexcept = default;

  /// From an integer.
  explicit Rational(Time value) noexcept;

  /// From a fraction; normalizes sign and gcd. \pre den != 0
  Rational(Time num, Time den);

  /// An already-inexact rational carrying only a double approximation.
  [[nodiscard]] static Rational inexact(double approx) noexcept;

  [[nodiscard]] bool exact() const noexcept { return exact_; }
  /// Numerator (meaningful only when exact()).
  [[nodiscard]] Int128 num() const noexcept { return num_; }
  /// Denominator, always > 0 (meaningful only when exact()).
  [[nodiscard]] Int128 den() const noexcept { return den_; }
  /// Best-effort double value, valid in both exact and inexact states.
  [[nodiscard]] double to_double() const noexcept { return approx_; }

  [[nodiscard]] bool is_zero() const noexcept {
    return exact_ && num_ == 0;
  }
  [[nodiscard]] bool is_negative() const noexcept {
    return exact_ ? num_ < 0 : approx_ < 0.0;
  }

  Rational& operator+=(const Rational& o) noexcept;
  Rational& operator-=(const Rational& o) noexcept;
  Rational& operator*=(const Rational& o) noexcept;
  /// \pre !o.is_zero() when both are exact; inexact division propagates.
  Rational& operator/=(const Rational& o) noexcept;

  [[nodiscard]] friend Rational operator+(Rational a, const Rational& b) noexcept {
    a += b;
    return a;
  }
  [[nodiscard]] friend Rational operator-(Rational a, const Rational& b) noexcept {
    a -= b;
    return a;
  }
  [[nodiscard]] friend Rational operator*(Rational a, const Rational& b) noexcept {
    a *= b;
    return a;
  }
  [[nodiscard]] friend Rational operator/(Rational a, const Rational& b) noexcept {
    a /= b;
    return a;
  }

  /// Exact three-way comparison; Unknown if either side is inexact.
  [[nodiscard]] Ordering compare(const Rational& o) const noexcept;
  /// Compare against an integer.
  [[nodiscard]] Ordering compare(Time value) const noexcept;

  /// Convenience predicates with a required certainty: returns true only
  /// if the relation *provably* holds. Unknown compares return false, so
  /// `a.certainly_le(b)` failing does NOT imply `a > b`.
  [[nodiscard]] bool certainly_le(const Rational& o) const noexcept {
    const Ordering c = compare(o);
    return c == Ordering::Less || c == Ordering::Equal;
  }
  [[nodiscard]] bool certainly_gt(const Rational& o) const noexcept {
    return compare(o) == Ordering::Greater;
  }
  [[nodiscard]] bool certainly_le(Time v) const noexcept {
    const Ordering c = compare(v);
    return c == Ordering::Less || c == Ordering::Equal;
  }
  [[nodiscard]] bool certainly_gt(Time v) const noexcept {
    return compare(v) == Ordering::Greater;
  }

  /// Equality is exact equality; inexact values never compare equal.
  [[nodiscard]] bool operator==(const Rational& o) const noexcept {
    return compare(o) == Ordering::Equal;
  }

  /// floor(p/q). \pre exact()
  [[nodiscard]] Time floor() const;
  /// ceil(p/q). \pre exact()
  [[nodiscard]] Time ceil() const;

  /// "p/q" or "~<double>" when inexact.
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr Int128 kMaxMag = (static_cast<Int128>(1) << 126);

  void normalize() noexcept;
  void degrade() noexcept;

  Int128 num_ = 0;
  Int128 den_ = 1;
  double approx_ = 0.0;
  bool exact_ = true;
};

}  // namespace edfkit

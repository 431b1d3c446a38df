#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace atm::ts {

/// A univariate, regularly-sampled time series.
///
/// In ATM a `Series` holds either a *usage* series (utilization in percent,
/// 0..100) or a *demand* series (usage x allocated capacity, in GHz or GB)
/// sampled once per ticketing window (15 minutes in the paper).
///
/// The class is a thin, value-semantic wrapper over `std::vector<double>`
/// with a name for diagnostics; all analytics live in free functions
/// (stats.hpp, cdf.hpp, features.hpp) operating on `std::span<const double>`
/// so they compose with plain vectors too.
class Series {
  public:
    Series() = default;

    /// Creates a named series from samples.
    Series(std::string name, std::vector<double> values)
        : name_(std::move(name)), values_(std::move(values)) {}

    /// Creates an unnamed series from samples.
    explicit Series(std::vector<double> values) : values_(std::move(values)) {}

    /// Diagnostic name (e.g. "box17/vm3/CPU").
    [[nodiscard]] const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    [[nodiscard]] std::size_t size() const { return values_.size(); }
    [[nodiscard]] bool empty() const { return values_.empty(); }

    [[nodiscard]] double operator[](std::size_t i) const { return values_[i]; }
    [[nodiscard]] double& operator[](std::size_t i) { return values_[i]; }

    /// Underlying samples, in time order.
    [[nodiscard]] const std::vector<double>& values() const { return values_; }
    [[nodiscard]] std::vector<double>& values() { return values_; }

    /// Read-only view of the samples.
    [[nodiscard]] std::span<const double> view() const { return values_; }

    /// Copy of samples [first, first+count); clamps to the series length.
    [[nodiscard]] Series slice(std::size_t first, std::size_t count) const;

    /// Appends one sample.
    void push_back(double v) { values_.push_back(v); }

    /// Element-wise scaling: returns a series with every sample * factor.
    [[nodiscard]] Series scaled(double factor) const;

    auto begin() const { return values_.begin(); }
    auto end() const { return values_.end(); }

  private:
    std::string name_;
    std::vector<double> values_;
};

}  // namespace atm::ts

#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace atm::la {

/// Contiguous row-major matrix of doubles with row-span access — the
/// library's one matrix type, and the one owning type for a set of
/// equal-length series (one row per series: a box's demand series, a
/// training window, a forecast horizon).
///
/// One flat buffer, no per-row vectors, so a whole series set, distance
/// matrix, DP table or design matrix is a single cache-friendly block
/// that can be reused across calls without re-allocating. The shape
/// itself is the equal-length invariant: every row has cols() samples.
/// `operator[]` returns a row span; a regression that reads a subset of
/// rows takes them as `row_views(...)` (spans into this matrix, no
/// copies).
class FlatMatrix {
  public:
    FlatMatrix() = default;

    /// rows x cols matrix filled with `fill`.
    FlatMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Copies nested rows (tests and examples build matrices from
    /// literals this way). Throws std::invalid_argument on ragged rows.
    explicit FlatMatrix(const std::vector<std::vector<double>>& nested) {
        rows_ = nested.size();
        cols_ = rows_ == 0 ? 0 : nested.front().size();
        data_.reserve(rows_ * cols_);
        for (const auto& row : nested) {
            if (row.size() != cols_) {
                throw std::invalid_argument("FlatMatrix: ragged rows");
            }
            data_.insert(data_.end(), row.begin(), row.end());
        }
    }

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }
    /// Row count (the `series.size()` idiom of a series set).
    [[nodiscard]] std::size_t size() const { return rows_; }
    [[nodiscard]] bool empty() const { return rows_ == 0; }

    [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<const double> operator[](std::size_t r) const {
        return {data_.data() + r * cols_, cols_};
    }
    [[nodiscard]] std::span<double> operator[](std::size_t r) {
        return {data_.data() + r * cols_, cols_};
    }

    /// Spans over every row, in order.
    [[nodiscard]] std::vector<std::span<const double>> row_views() const {
        std::vector<std::span<const double>> views;
        views.reserve(rows_);
        for (std::size_t r = 0; r < rows_; ++r) views.push_back((*this)[r]);
        return views;
    }
    /// Spans over the rows `rows` selects, in that order (indices must be
    /// in range).
    [[nodiscard]] std::vector<std::span<const double>> row_views(
        const std::vector<int>& rows) const {
        std::vector<std::span<const double>> views;
        views.reserve(rows.size());
        for (const int r : rows) views.push_back((*this)[static_cast<std::size_t>(r)]);
        return views;
    }

    /// Reshapes to rows x cols and fills every element (capacity is kept,
    /// so a reused instance stops allocating once it has seen its largest
    /// shape).
    void assign(std::size_t rows, std::size_t cols, double fill) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, fill);
    }

    /// Raw row-major storage.
    [[nodiscard]] const std::vector<double>& data() const { return data_; }
    [[nodiscard]] std::vector<double>& data() { return data_; }

    friend bool operator==(const FlatMatrix& a, const FlatMatrix& b) = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace atm::la

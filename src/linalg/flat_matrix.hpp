#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace atm::la {

/// Contiguous row-major matrix of doubles with row-span access — the
/// library's one matrix type.
///
/// One flat buffer, no per-row vectors, so a whole distance matrix, DP
/// table or design matrix is a single cache-friendly block that can be
/// reused across calls without re-allocating. `operator[]` returns a row
/// span, so code written against `vector<vector<double>>` (`m[i][j]`,
/// `m.size()`) ports with no call-site changes; the converting
/// constructor keeps nested-vector literals (tests, examples) working as
/// before.
class FlatMatrix {
  public:
    FlatMatrix() = default;

    /// rows x cols matrix filled with `fill`.
    FlatMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Converting constructor from nested rows (all rows must be equal
    /// length). Deliberately implicit: distance-matrix call sites built
    /// nested vectors for years and the O(n²) copy is test-sized.
    FlatMatrix(const std::vector<std::vector<double>>& nested) {  // NOLINT
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
    /// Row count — matches the `dist.size()` idiom of the nested-vector
    /// distance matrices this type replaces.
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

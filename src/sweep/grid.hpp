#pragma once
/// \file grid.hpp
/// \brief Cartesian parameter grids with a canonical, deterministic point
///        ordering — the index space a sweep evaluates.
///
/// A grid is an ordered list of named axes; point `i` decodes by mixed-radix
/// expansion with the *last* axis varying fastest (row-major), so enumeration
/// order is a pure function of the grid definition. Everything downstream
/// (memoization keys, JSON artifacts, the regression gate) relies on that
/// determinism.
///
/// The grid is a *streaming* structure: `size()` may be 10^6–10^8 points but
/// nothing is ever materialized. `point()` allocates one small vector for
/// one-off lookups; the batch evaluator instead uses `decode_into` (no
/// allocation) and `decode_chunk` (a whole index range into a caller-owned
/// structure-of-arrays buffer, filled axis-by-axis in value runs so the
/// inner loops are plain contiguous stores), and `GridCursor` walks the grid
/// with O(1) amortized mixed-radix increments for consumers that want one
/// point at a time without the per-point division chain.

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace stamp::sweep {

/// One named dimension of the grid.
struct GridAxis {
  std::string name;
  std::vector<double> values;
};

class ParamGrid {
 public:
  /// Append an axis. Throws std::invalid_argument on an empty value list or a
  /// duplicate name. Returns *this for chaining.
  ParamGrid& axis(std::string name, std::vector<double> values);

  [[nodiscard]] const std::vector<GridAxis>& axes() const noexcept {
    return axes_;
  }

  /// Number of grid points: the product of axis sizes (0 for a grid with no
  /// axes — an empty grid has nothing to evaluate).
  [[nodiscard]] std::size_t size() const noexcept;

  /// True when no two grid points share a parameter tuple, so a cost cache
  /// keyed on the tuple can never hit: every axis value is finite and no axis
  /// repeats a value under `==`. Comparing with `==` makes `-0.0` and `0.0`
  /// the same value, as the cache's canonical key does; a NaN or Inf value
  /// makes the answer false, so such grids keep the cache and its rejection
  /// of non-finite keys.
  [[nodiscard]] bool tuples_distinct() const;

  /// Decode point `index` into one value per axis, in axis order.
  /// Throws std::out_of_range for `index >= size()`.
  [[nodiscard]] std::vector<double> point(std::size_t index) const;

  /// Allocation-free `point`: decode `index` into `out`, which must hold
  /// exactly one slot per axis (std::invalid_argument otherwise). Throws
  /// std::out_of_range for `index >= size()`.
  void decode_into(std::size_t index, std::span<double> out) const;

  /// Decode the index range [begin, end) into a structure-of-arrays buffer:
  /// after the call, `out[a * (end - begin) + k]` is axis `a`'s value at
  /// point `begin + k`. Each axis column is written as runs of one repeated
  /// value (axis `a` holds a value for `period(a)` consecutive indices), so
  /// the fill is contiguous stores, not a per-point division chain.
  /// Throws std::out_of_range for `begin > end` or `end > size()`, and
  /// std::invalid_argument when `out.size() != axes().size() * (end - begin)`.
  void decode_chunk(std::size_t begin, std::size_t end,
                    std::span<double> out) const;

  /// Position of the named axis, or -1 when absent.
  [[nodiscard]] int axis_index(std::string_view name) const noexcept;

  /// Value of the named axis within a decoded point.
  /// Throws std::invalid_argument when the axis does not exist.
  [[nodiscard]] double value(std::span<const double> point,
                             std::string_view axis) const;

 private:
  std::vector<GridAxis> axes_;
};

/// A streaming iterator over a grid: holds the current mixed-radix digits
/// and decoded values, and advances with a carry chain (O(1) amortized, no
/// divisions, no allocation after construction). The cursor never
/// materializes the grid, so it walks a 10^8-point design space in constant
/// memory. The referenced grid must outlive the cursor.
class GridCursor {
 public:
  /// Position the cursor at `start`. Throws std::out_of_range for
  /// `start > grid.size()` (== size() constructs an exhausted cursor).
  explicit GridCursor(const ParamGrid& grid, std::size_t start = 0);

  /// True once the cursor has walked past the last point.
  [[nodiscard]] bool done() const noexcept { return index_ >= size_; }

  /// Current grid index. Precondition: `!done()` for meaningful use.
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  /// The decoded values of the current point, in axis order. The span is
  /// invalidated by `advance`. Precondition: `!done()`.
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

  /// Step to the next point (no-op once done).
  void advance() noexcept;

 private:
  const ParamGrid* grid_;
  std::size_t index_ = 0;
  std::size_t size_ = 0;
  std::vector<std::size_t> digits_;  ///< current mixed-radix digit per axis
  std::vector<double> values_;       ///< decoded value per axis
};

/// `count` evenly spaced values from `lo` to `hi` inclusive (endpoints
/// exact), the usual way to build a dense machine-parameter axis. `count`
/// of 1 yields `{lo}`. Throws std::invalid_argument for `count == 0` or
/// non-finite bounds.
[[nodiscard]] std::vector<double> linspace(double lo, double hi,
                                           std::size_t count);

}  // namespace stamp::sweep

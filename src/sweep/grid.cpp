#include "sweep/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace stamp::sweep {

ParamGrid& ParamGrid::axis(std::string name, std::vector<double> values) {
  if (values.empty())
    throw std::invalid_argument("ParamGrid: axis '" + name + "' has no values");
  if (axis_index(name) >= 0)
    throw std::invalid_argument("ParamGrid: duplicate axis '" + name + "'");
  // Guard the size product against overflow before accepting the axis.
  std::size_t product = values.size();
  for (const GridAxis& a : axes_) {
    if (product > std::numeric_limits<std::size_t>::max() / a.values.size())
      throw std::invalid_argument("ParamGrid: grid size overflows size_t");
    product *= a.values.size();
  }
  axes_.push_back(GridAxis{std::move(name), std::move(values)});
  return *this;
}

std::size_t ParamGrid::size() const noexcept {
  if (axes_.empty()) return 0;
  std::size_t product = 1;
  for (const GridAxis& a : axes_) product *= a.values.size();
  return product;
}

bool ParamGrid::tuples_distinct() const {
  std::vector<double> sorted;
  for (const GridAxis& a : axes_) {
    sorted = a.values;
    if (!std::all_of(sorted.begin(), sorted.end(),
                     [](double v) { return std::isfinite(v); }))
      return false;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      return false;
  }
  return true;
}

std::vector<double> ParamGrid::point(std::size_t index) const {
  std::vector<double> out(axes_.size());
  decode_into(index, out);
  return out;
}

void ParamGrid::decode_into(std::size_t index, std::span<double> out) const {
  if (index >= size())
    throw std::out_of_range("ParamGrid::decode_into: bad index");
  if (out.size() != axes_.size())
    throw std::invalid_argument(
        "ParamGrid::decode_into: output span must hold one value per axis");
  // Mixed-radix decode, last axis fastest.
  for (std::size_t k = axes_.size(); k-- > 0;) {
    const std::vector<double>& vals = axes_[k].values;
    out[k] = vals[index % vals.size()];
    index /= vals.size();
  }
}

void ParamGrid::decode_chunk(std::size_t begin, std::size_t end,
                             std::span<double> out) const {
  if (begin > end || end > size())
    throw std::out_of_range("ParamGrid::decode_chunk: bad index range");
  const std::size_t count = end - begin;
  if (out.size() != axes_.size() * count)
    throw std::invalid_argument(
        "ParamGrid::decode_chunk: output span must hold axes() * (end - "
        "begin) values");
  if (count == 0) return;
  // Axis k holds one value for `period` consecutive indices (the product of
  // the sizes of the axes after it), so each column is a sequence of
  // constant runs: find the run containing `begin`, then fill forward.
  std::size_t period = 1;
  for (std::size_t k = axes_.size(); k-- > 0;) {
    const std::vector<double>& vals = axes_[k].values;
    const std::size_t arity = vals.size();
    double* col = out.data() + k * count;
    std::size_t digit = (begin / period) % arity;
    std::size_t run = period - begin % period;  // indices left in this run
    std::size_t filled = 0;
    while (filled < count) {
      const double v = vals[digit];
      const std::size_t len = std::min(run, count - filled);
      for (std::size_t j = 0; j < len; ++j) col[filled + j] = v;
      filled += len;
      digit = digit + 1 == arity ? 0 : digit + 1;
      run = period;
    }
    period *= arity;
  }
}

int ParamGrid::axis_index(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < axes_.size(); ++i)
    if (axes_[i].name == name) return static_cast<int>(i);
  return -1;
}

GridCursor::GridCursor(const ParamGrid& grid, std::size_t start)
    : grid_(&grid), index_(start), size_(grid.size()) {
  if (start > size_)
    throw std::out_of_range("GridCursor: start index past the grid");
  digits_.resize(grid.axes().size());
  values_.resize(grid.axes().size());
  if (index_ < size_) {
    std::size_t rest = index_;
    for (std::size_t k = digits_.size(); k-- > 0;) {
      const std::vector<double>& vals = grid.axes()[k].values;
      digits_[k] = rest % vals.size();
      values_[k] = vals[digits_[k]];
      rest /= vals.size();
    }
  }
}

void GridCursor::advance() noexcept {
  if (done()) return;
  ++index_;
  if (done()) return;
  // Mixed-radix increment with carry, last axis fastest: almost always one
  // digit bump; a carry ripples only every `arity(last)` points.
  for (std::size_t k = digits_.size(); k-- > 0;) {
    const std::vector<double>& vals = grid_->axes()[k].values;
    if (++digits_[k] < vals.size()) {
      values_[k] = vals[digits_[k]];
      return;
    }
    digits_[k] = 0;
    values_[k] = vals[0];
  }
}

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  if (count == 0)
    throw std::invalid_argument("linspace: count must be >= 1");
  if (!std::isfinite(lo) || !std::isfinite(hi))
    throw std::invalid_argument("linspace: bounds must be finite");
  std::vector<double> out(count);
  if (count == 1) {
    out[0] = lo;
    return out;
  }
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;  // endpoint exact regardless of rounding in the steps
  return out;
}

double ParamGrid::value(std::span<const double> point,
                        std::string_view axis) const {
  const int i = axis_index(axis);
  if (i < 0 || static_cast<std::size_t>(i) >= point.size())
    throw std::invalid_argument("ParamGrid::value: no axis named '" +
                                std::string(axis) + "'");
  return point[static_cast<std::size_t>(i)];
}

}  // namespace stamp::sweep

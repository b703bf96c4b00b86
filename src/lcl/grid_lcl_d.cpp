#include "lcl/grid_lcl_d.hpp"

#include <stdexcept>
#include <utility>

namespace lclgrid {

GridLclD::GridLclD(std::string name, int dims, int sigma, std::uint32_t deps,
                   Predicate ok)
    : GridLclD(std::move(name), dims, sigma, deps, std::move(ok), nullptr) {
  if (dims < 1) throw std::invalid_argument("GridLclD: dims must be positive");
  if (sigma < 1) {
    throw std::invalid_argument("GridLclD: alphabet must be non-empty");
  }
  if (!ok_) throw std::invalid_argument("GridLclD: missing predicate");
  if (LclTableD::compilable(dims, sigma, deps)) {
    table_ = std::make_shared<const LclTableD>(
        LclTableD::compile(dims, sigma, deps, ok_));
  }
}

GridLclD::GridLclD(std::string name, int dims, int sigma, std::uint32_t deps,
                   Predicate ok, std::shared_ptr<const LclTableD> table)
    : name_(std::move(name)),
      dims_(dims),
      sigma_(sigma),
      deps_(deps),
      ok_(std::move(ok)),
      table_(std::move(table)) {}

GridLclD::GridLclD(std::string name, LclTableD table)
    : name_(std::move(name)),
      dims_(table.dims()),
      sigma_(table.sigma()),
      deps_(table.deps()),
      table_(std::make_shared<const LclTableD>(std::move(table))) {
  // Out-of-range labels must be rejected before indexing the table -- the
  // verifier's fallback path feeds garbage labels through the predicate
  // (same guard as the 2D table-first constructor).
  ok_ = [t = table_](int c, std::span<const int> nbrs) {
    auto in = [&t](int label) {
      return static_cast<unsigned>(label) <
             static_cast<unsigned>(t->sigma());
    };
    if (!in(c)) return false;
    for (int nbr : nbrs) {
      if (!in(nbr)) return false;
    }
    return t->allows(c, nbrs);
  };
}

const LclTableD& GridLclD::table() const {
  if (!table_) throw std::logic_error("GridLclD: problem is not compiled");
  return *table_;
}

void GridLclD::setLabelNames(std::vector<std::string> names) {
  if (static_cast<int>(names.size()) != sigma_) {
    throw std::invalid_argument("GridLclD: label name count != sigma");
  }
  labelNames_ = std::move(names);
}

std::string GridLclD::labelName(int label) const {
  if (label >= 0 && label < static_cast<int>(labelNames_.size())) {
    return labelNames_[static_cast<std::size_t>(label)];
  }
  return std::to_string(label);
}

int GridLclD::trivialLabel() const {
  if (table_) return table_->trivialLabel();
  std::vector<int> constant(static_cast<std::size_t>(2 * dims_), 0);
  for (int c = 0; c < sigma_; ++c) {
    std::fill(constant.begin(), constant.end(), c);
    if (ok_(c, constant)) return c;
  }
  return -1;
}

namespace problems_d {

GridLclD vertexColouring(int dims, int colours) {
  if (colours < 1) {
    throw std::invalid_argument("vertexColouring: colours must be positive");
  }
  GridLclD lcl("vertex-colouring-" + std::to_string(colours) + "-d" +
                   std::to_string(dims),
               dims, colours, LclTableD::fullDeps(dims),
               [](int c, std::span<const int> nbrs) {
                 for (int nbr : nbrs) {
                   if (nbr == c) return false;
                 }
                 return true;
               });
  return lcl;
}

GridLclD xorParity(int dims) {
  return GridLclD("xor-parity-d" + std::to_string(dims), dims, 2,
                  LclTableD::fullDeps(dims),
                  [](int c, std::span<const int> nbrs) {
                    int parity = 0;
                    for (int nbr : nbrs) parity ^= nbr & 1;
                    return c == parity;
                  });
}

GridLclD monotoneAxis(int dims, int axis, int sigma) {
  if (axis < 0 || axis >= dims) {
    throw std::invalid_argument("monotoneAxis: axis out of range");
  }
  if (sigma < 2) {
    throw std::invalid_argument("monotoneAxis: sigma must be >= 2");
  }
  const std::uint32_t deps =
      (std::uint32_t{1} << (2 * axis)) | (std::uint32_t{1} << (2 * axis + 1));
  const int pos = 2 * axis;
  const int neg = 2 * axis + 1;
  return GridLclD(
      "monotone-axis" + std::to_string(axis) + "-d" + std::to_string(dims),
      dims, sigma, deps, [sigma, pos, neg](int c, std::span<const int> nbrs) {
        auto follows = [sigma](int a, int b) {
          return b == a || b == (a + 1) % sigma;
        };
        return follows(c, nbrs[pos]) && follows(nbrs[neg], c);
      });
}

}  // namespace problems_d

}  // namespace lclgrid

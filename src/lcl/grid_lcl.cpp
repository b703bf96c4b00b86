#include "lcl/grid_lcl.hpp"

#include <atomic>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "lcl/grid_lcl_d.hpp"

namespace lclgrid {

GridLcl::GridLcl(std::string name, int sigma, std::uint8_t deps, Predicate ok)
    : name_(std::move(name)), sigma_(sigma), deps_(deps), ok_(std::move(ok)) {
  if (sigma < 1) throw std::invalid_argument("GridLcl: empty alphabet");
  if (!ok_) throw std::invalid_argument("GridLcl: missing predicate");
  if (LclTable::compilable(sigma_, deps_)) {
    table_ = std::make_shared<const LclTable>(
        LclTable::compile(sigma_, deps_, ok_));
  }
  makeView();
}

GridLcl::GridLcl(std::string name, LclTable table)
    : name_(std::move(name)),
      sigma_(table.sigma()),
      deps_(table.deps()),
      table_(std::make_shared<const LclTable>(std::move(table))) {
  ok_ = [t = table_](int c, int n, int e, int s, int w) {
    auto in = [&t](int label) {
      return static_cast<unsigned>(label) <
             static_cast<unsigned>(t->sigma());
    };
    if (!in(c) || !in(n) || !in(e) || !in(s) || !in(w)) return false;
    return t->allows(c, n, e, s, w);
  };
  makeView();
}

void GridLcl::makeView() {
  GridLclD::Predicate ok = [ok = ok_](int c, std::span<const int> nbrs) {
    return ok(c, nbrs[2], nbrs[0], nbrs[3], nbrs[1]);
  };
  view_ = std::make_shared<const GridLclD>(
      name_, 2, sigma_, LclTableD::depsFrom2D(deps_), std::move(ok),
      table_ ? std::make_shared<const LclTableD>(LclTableD::fromTable2D(table_))
             : nullptr);
}

GridLcl::GridLcl(const GridLcl& other)
    : name_(other.name_),
      sigma_(other.sigma_),
      deps_(other.deps_),
      ok_(other.ok_),
      table_(other.table_),
      view_(other.view_),
      labelNames_(other.labelNames_) {
  // The acquire load synchronises with the publication in projections():
  // once the pointer is visible, other.projections_ is immutable, so the
  // plain shared_ptr copy is race-free. A null pointer (source not yet
  // computed, or mid-compute) just means this copy recomputes on demand.
  if (const Projections* computed =
          other.projectionsPtr_.load(std::memory_order_acquire)) {
    projections_ = other.projections_;
    projectionsPtr_.store(computed, std::memory_order_release);
  }
}

GridLcl& GridLcl::operator=(const GridLcl& other) {
  if (this == &other) return *this;
  GridLcl copy(other);
  name_ = std::move(copy.name_);
  sigma_ = copy.sigma_;
  deps_ = copy.deps_;
  ok_ = std::move(copy.ok_);
  table_ = std::move(copy.table_);
  view_ = std::move(copy.view_);
  labelNames_ = std::move(copy.labelNames_);
  projections_ = std::move(copy.projections_);
  projectionsPtr_.store(copy.projectionsPtr_.load(std::memory_order_relaxed),
                        std::memory_order_release);
  return *this;
}

GridLcl::GridLcl(GridLcl&& other) noexcept
    : name_(std::move(other.name_)),
      sigma_(other.sigma_),
      deps_(other.deps_),
      ok_(std::move(other.ok_)),
      table_(std::move(other.table_)),
      view_(std::move(other.view_)),
      labelNames_(std::move(other.labelNames_)),
      projections_(std::move(other.projections_)) {
  projectionsPtr_.store(
      other.projectionsPtr_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.projectionsPtr_.store(nullptr, std::memory_order_relaxed);
}

GridLcl& GridLcl::operator=(GridLcl&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  sigma_ = other.sigma_;
  deps_ = other.deps_;
  ok_ = std::move(other.ok_);
  table_ = std::move(other.table_);
  view_ = std::move(other.view_);
  labelNames_ = std::move(other.labelNames_);
  projections_ = std::move(other.projections_);
  projectionsPtr_.store(
      other.projectionsPtr_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.projectionsPtr_.store(nullptr, std::memory_order_relaxed);
  return *this;
}

const LclTable& GridLcl::table() const {
  if (!table_) {
    throw std::logic_error("GridLcl: '" + name_ +
                           "' has no compiled table (alphabet too large)");
  }
  return *table_;
}

void GridLcl::setLabelNames(std::vector<std::string> names) {
  if (static_cast<int>(names.size()) != sigma_) {
    throw std::invalid_argument("GridLcl: label name count mismatch");
  }
  labelNames_ = std::move(names);
}

std::string GridLcl::labelName(int label) const {
  if (label < 0 || label >= sigma_) return "?";
  if (labelNames_.empty()) return std::to_string(label);
  return labelNames_[static_cast<std::size_t>(label)];
}

bool GridLcl::hasTrivialSolution() const { return trivialLabel() >= 0; }

int GridLcl::trivialLabel() const {
  if (table_) return table_->trivialLabel();
  for (int label = 0; label < sigma_; ++label) {
    if (allows(label, label, label, label, label)) return label;
  }
  return -1;
}

const GridLcl::Projections& GridLcl::projections() const {
  // Fast path: one lock-free acquire load, as cheap as the plain flag it
  // replaced -- the synthesizer calls the pair projections sigma^2 times
  // per CNF build. The mutex only serialises the one-time compute (it is
  // global because GridLcl must stay copyable and fallback-path computes
  // are rare). The projections are only ever set once, so the returned
  // reference stays valid for the problem's lifetime.
  if (const Projections* computed =
          projectionsPtr_.load(std::memory_order_acquire)) {
    return *computed;
  }
  static std::mutex computeMutex;
  std::lock_guard<std::mutex> lock(computeMutex);
  if (const Projections* computed =
          projectionsPtr_.load(std::memory_order_acquire)) {
    return *computed;
  }

  auto fresh = std::make_shared<Projections>();
  const int s = sigma_;
  fresh->hPairs.assign(static_cast<std::size_t>(s) * s, 0);
  fresh->vPairs.assign(static_cast<std::size_t>(s) * s, 0);

  // Maximal candidate projections: a pair participates if it occurs in some
  // allowed cross, viewed from either of the two nodes it touches. If a
  // decomposition exists at all, it is witnessed by these relations (see the
  // unit tests for the equivalence argument exercised on all problems).
  for (int c = 0; c < s; ++c) {
    for (int n = 0; n < s; ++n) {
      for (int e = 0; e < s; ++e) {
        for (int so = 0; so < s; ++so) {
          for (int w = 0; w < s; ++w) {
            if (!allows(c, n, e, so, w)) continue;
            fresh->hPairs[static_cast<std::size_t>(w) * s + c] = 1;
            fresh->hPairs[static_cast<std::size_t>(c) * s + e] = 1;
            fresh->vPairs[static_cast<std::size_t>(so) * s + c] = 1;
            fresh->vPairs[static_cast<std::size_t>(c) * s + n] = 1;
          }
        }
      }
    }
  }

  bool decomposable = true;
  for (int c = 0; c < s && decomposable; ++c) {
    for (int n = 0; n < s && decomposable; ++n) {
      for (int e = 0; e < s && decomposable; ++e) {
        for (int so = 0; so < s && decomposable; ++so) {
          for (int w = 0; w < s; ++w) {
            bool byPairs =
                fresh->hPairs[static_cast<std::size_t>(w) * s + c] &&
                fresh->hPairs[static_cast<std::size_t>(c) * s + e] &&
                fresh->vPairs[static_cast<std::size_t>(so) * s + c] &&
                fresh->vPairs[static_cast<std::size_t>(c) * s + n];
            if (byPairs != allows(c, n, e, so, w)) {
              decomposable = false;
              break;
            }
          }
        }
      }
    }
  }
  fresh->edgeDecomposable = decomposable;

  // Ownership lands in projections_ under the mutex; the release store of
  // the raw pointer is the publication readers synchronise with.
  projections_ = std::move(fresh);
  projectionsPtr_.store(projections_.get(), std::memory_order_release);
  return *projections_;
}

bool GridLcl::isEdgeDecomposable() const {
  if (table_) return table_->edgeDecomposable();
  return projections().edgeDecomposable;
}

bool GridLcl::horizontalOk(int west, int east) const {
  if (table_) return table_->horizontalOk(west, east);
  return projections()
             .hPairs[static_cast<std::size_t>(west) * sigma_ + east] != 0;
}

bool GridLcl::verticalOk(int south, int north) const {
  if (table_) return table_->verticalOk(south, north);
  return projections()
             .vPairs[static_cast<std::size_t>(south) * sigma_ + north] != 0;
}

}  // namespace lclgrid

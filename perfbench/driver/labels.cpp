#include "labels.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

// Row y of the vc:4 base uses the colour pair pairs[y % 2] with a seeded
// phase, so horizontal neighbours alternate within a pair and vertical
// neighbours come from the other pair. Valid for even n.
// Row y of the weak:3:1 base is (x + shift[y]) mod 3 with consecutive
// shifts differing by a seeded 1 or 2 (and the wrap fixed up), a proper
// 3-colouring for n divisible by 3.
struct Base {
  Problem problem;
  int n;
  int colours[4];
  std::vector<int> shift;

  int at(int x, int y) const {
    if (problem == Problem::kVc4) {
      return colours[2 * (y % 2) + ((x + shift[std::size_t(y)]) % 2)];
    }
    return (x + shift[std::size_t(y)]) % 3;
  }
};

Base makeBase(Problem problem, int n, Rng& rng) {
  if (problem == Problem::kVc4 ? n % 2 != 0 : n % 3 != 0) {
    throw std::invalid_argument("labelling side does not fit the base pattern");
  }
  Base base{problem, n, {0, 1, 2, 3}, std::vector<int>(std::size_t(n))};
  for (int i = 3; i > 0; --i) {
    std::swap(base.colours[i], base.colours[rng.below(std::uint64_t(i) + 1)]);
  }
  if (problem == Problem::kVc4) {
    for (int& s : base.shift) s = int(rng.below(2));
  } else {
    base.shift[0] = int(rng.below(3));
    for (int y = 1; y < n; ++y) {
      base.shift[std::size_t(y)] = (base.shift[std::size_t(y - 1)] + 1 + int(rng.below(2))) % 3;
    }
    int& last = base.shift[std::size_t(n - 1)];
    if (last == base.shift[0]) {
      // Re-pick the last step so the wrap rows differ too; the row before
      // still differs because the step stays 1 or 2.
      const int prev = base.shift[std::size_t(n - 2)];
      last = (prev + 1) % 3 == base.shift[0] ? (prev + 2) % 3 : (prev + 1) % 3;
    }
  }
  return base;
}

}  // namespace

std::int64_t makeLabelling(Problem problem, int n, std::uint64_t seed,
                           std::uint64_t stream, std::int64_t sites,
                           int* labels, int threads) {
  Rng rng(seed, stream);
  const Base base = makeBase(problem, n, rng);

  // Base fill, row blocks in parallel (deterministic: a pure function).
  threads = std::max(1, std::min(threads, n));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const int y0 = int(std::int64_t(n) * t / threads);
      const int y1 = int(std::int64_t(n) * (t + 1) / threads);
      for (int y = y0; y < y1; ++y) {
        int* row = labels + std::int64_t(y) * n;
        for (int x = 0; x < n; ++x) row[x] = base.at(x, y);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const auto id = [n](int x, int y) {
    x = (x % n + n) % n;
    y = (y % n + n) % n;
    return std::int64_t(y) * n + x;
  };
  // Plants. vc:4: copy the east neighbour's colour onto the site (the site
  // then violates for sure). weak:3:1: give the site's four neighbours the
  // site's colour (the site then violates for sure). Sites may overlap;
  // the reference count below is exact either way.
  std::vector<std::int64_t> touched;
  touched.reserve(std::size_t(sites) * 5);
  for (std::int64_t i = 0; i < sites; ++i) {
    const int x = int(rng.below(std::uint64_t(n)));
    const int y = int(rng.below(std::uint64_t(n)));
    if (problem == Problem::kVc4) {
      labels[id(x, y)] = labels[id(x + 1, y)];
      touched.push_back(id(x, y));
    } else {
      const int c = labels[id(x, y)];
      const int dx[4] = {0, 1, 0, -1};
      const int dy[4] = {-1, 0, 1, 0};
      for (int d = 0; d < 4; ++d) {
        labels[id(x + dx[d], y + dy[d])] = c;
        touched.push_back(id(x + dx[d], y + dy[d]));
      }
    }
  }
  // Reference count over the closed neighbourhoods of every rewritten node.
  std::vector<std::int64_t> affected;
  affected.reserve(touched.size() * 5);
  for (std::int64_t v : touched) {
    const int x = int(v % n);
    const int y = int(v / n);
    affected.push_back(v);
    affected.push_back(id(x, y - 1));
    affected.push_back(id(x + 1, y));
    affected.push_back(id(x, y + 1));
    affected.push_back(id(x - 1, y));
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
  std::int64_t expected = 0;
  for (std::int64_t v : affected) {
    const int x = int(v % n);
    const int y = int(v / n);
    expected += violates(problem, labels[v], labels[id(x, y - 1)],
                         labels[id(x + 1, y)], labels[id(x, y + 1)],
                         labels[id(x - 1, y)]);
  }
  return expected;
}

Labelling makeLabelling(Problem problem, int n, std::uint64_t seed,
                        std::uint64_t stream, std::int64_t sites) {
  Labelling out;
  out.n = n;
  out.labels.resize(std::size_t(n) * std::size_t(n));
  out.expected = makeLabelling(problem, n, seed, stream, sites,
                               out.labels.data());
  return out;
}

}  // namespace perfbench

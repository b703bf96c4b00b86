#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "support/telemetry.hpp"

namespace lclgrid::sat {

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
// Clause activities live in a float header word, so their rescale limit is
// far below the double-based variable limit (MiniSat uses the same split).
constexpr float kClauseRescaleLimit = 1e20f;
constexpr double kClauseRescaleFactor = 1e-20;
constexpr std::int64_t kRestartBase = 128;
}  // namespace

Solver::Solver() = default;

int Solver::newVar() {
  int var = static_cast<int>(assigns_.size());
  assigns_.push_back(kUnassigned);
  savedPhase_.push_back(1);  // default phase: false (often good for EO encodings)
  level_.push_back(0);
  reason_.push_back(kNullRef);
  activity_.push_back(0.0);
  heapPosition_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heapInsert(var);
  return var + 1;
}

void Solver::reserveVars(int count) {
  assigns_.reserve(static_cast<std::size_t>(count));
  watches_.reserve(2 * static_cast<std::size_t>(count));
  while (numVars() < count) newVar();
}

Solver::Lit Solver::fromDimacs(int d) const {
  if (d == 0) throw std::invalid_argument("DIMACS literal 0");
  int var = std::abs(d) - 1;
  if (var >= numVars()) throw std::out_of_range("literal for unknown variable");
  return mkLit(var, d < 0);
}

std::uint8_t Solver::litValue(Lit l) const {
  std::uint8_t a = assigns_[varOf(l)];
  if (a == kUnassigned) return kUnassigned;
  return static_cast<std::uint8_t>(a ^ (signOf(l) ? 1 : 0));
}

float Solver::clauseActivity(ClauseRef c) const {
  return std::bit_cast<float>(arena_[c + 2]);
}

void Solver::setClauseActivity(ClauseRef c, float activity) {
  arena_[c + 2] = std::bit_cast<std::uint32_t>(activity);
}

bool Solver::addClause(const std::vector<int>& dimacsLits) {
  if (unsatisfiable_) return false;
  std::vector<Lit> lits;
  lits.reserve(dimacsLits.size());
  for (int d : dimacsLits) lits.push_back(fromDimacs(d));

  // Normalise: sort, remove duplicates, detect tautologies, drop literals
  // already false at level 0 and detect satisfied clauses.
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> cleaned;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i + 1] == negate(lits[i])) return true;
    if (i > 0 && lits[i] == negate(lits[i - 1])) return true;
    std::uint8_t value = litValue(lits[i]);
    if (value == kTrue) return true;  // satisfied at level 0
    if (value == kFalse) continue;    // permanently false literal
    cleaned.push_back(lits[i]);
  }

  if (cleaned.empty()) {
    unsatisfiable_ = true;
    return false;
  }
  if (cleaned.size() == 1) {
    enqueue(cleaned[0], kNullRef);
    if (propagate() != kNullRef) {
      unsatisfiable_ = true;
      return false;
    }
    return true;
  }
  addClauseInternal(cleaned, /*learnt=*/false);
  return true;
}

Solver::ClauseRef Solver::addClauseInternal(const std::vector<Lit>& lits,
                                            bool learnt) {
  const std::size_t words = kHeaderWords + lits.size();
  if (arena_.size() + words >= static_cast<std::size_t>(kNullRef)) {
    throw std::length_error("Solver: clause arena exceeds 32-bit refs");
  }
  ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  arena_.resize(arena_.size() + words);
  arena_[ref] = static_cast<std::uint32_t>(lits.size());
  arena_[ref + 1] = learnt ? kLearntFlag : 0;
  setClauseActivity(ref, 0.0f);
  for (std::size_t i = 0; i < lits.size(); ++i) {
    setLitAt(ref, static_cast<std::uint32_t>(i), lits[i]);
  }
  if (learnt) {
    setClauseLbd(ref, computeLbd(lits));
    setClauseActivity(ref, static_cast<float>(clauseActivityIncrement_));
    learntIndices_.push_back(ref);
    ++stats_.learntClauses;
  }
  ++stats_.liveClauses;
  stats_.liveLiterals += static_cast<std::int64_t>(lits.size());
  attachClause(ref);
  return ref;
}

void Solver::attachClause(ClauseRef ref) {
  watches_[negate(litAt(ref, 0))].push_back({ref, litAt(ref, 1)});
  watches_[negate(litAt(ref, 1))].push_back({ref, litAt(ref, 0)});
}

void Solver::enqueue(Lit l, ClauseRef reasonClause) {
  int var = varOf(l);
  assigns_[var] = signOf(l) ? kFalse : kTrue;
  savedPhase_[var] = signOf(l) ? 1 : 0;
  level_[var] = currentLevel();
  reason_[var] = reasonClause;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  // Watch lists never hold deleted clauses: reduceLearntDb() and
  // compactDatabase() scrub eagerly (scrubDeletedWatchers), so the blocker
  // fast path below cannot retain a watcher for a reclaimed clause for as
  // long as its blocker stays true. The deleted check on the slow path is
  // kept as a cheap guard on that invariant.
  while (propagationHead_ < static_cast<int>(trail_.size())) {
    Lit propagated = trail_[propagationHead_++];
    ++stats_.propagations;
    std::vector<Watcher>& watchList = watches_[propagated];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watchList.size(); ++i) {
      Watcher w = watchList[i];
      if (litValue(w.blocker) == kTrue) {
        watchList[keep++] = w;
        continue;
      }
      const ClauseRef ref = w.clause;
      if (clauseDeleted(ref)) continue;  // drop watcher for deleted clause
      // Ensure the falsified literal is at position 1.
      Lit falseLit = negate(propagated);
      if (litAt(ref, 0) == falseLit) {
        setLitAt(ref, 0, litAt(ref, 1));
        setLitAt(ref, 1, falseLit);
      }
      Lit first = litAt(ref, 0);
      if (first != w.blocker && litValue(first) == kTrue) {
        watchList[keep++] = {ref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool foundWatch = false;
      const std::uint32_t size = clauseSize(ref);
      for (std::uint32_t j = 2; j < size; ++j) {
        if (litValue(litAt(ref, j)) != kFalse) {
          Lit moved = litAt(ref, j);
          setLitAt(ref, j, litAt(ref, 1));
          setLitAt(ref, 1, moved);
          watches_[negate(moved)].push_back({ref, first});
          foundWatch = true;
          break;
        }
      }
      if (foundWatch) continue;
      // Clause is unit or conflicting.
      watchList[keep++] = {ref, first};
      if (litValue(first) == kFalse) {
        // Conflict: keep remaining watchers, signal conflict.
        for (std::size_t j = i + 1; j < watchList.size(); ++j) {
          watchList[keep++] = watchList[j];
        }
        watchList.resize(keep);
        propagationHead_ = static_cast<int>(trail_.size());
        return ref;
      }
      enqueue(first, ref);
    }
    watchList.resize(keep);
  }
  return kNullRef;
}

int Solver::computeLbd(const std::vector<Lit>& lits) {
  // Number of distinct decision levels among the literals.
  std::vector<int> levels;
  levels.reserve(lits.size());
  for (Lit l : lits) levels.push_back(level_[varOf(l)]);
  std::sort(levels.begin(), levels.end());
  return static_cast<int>(std::unique(levels.begin(), levels.end()) -
                          levels.begin());
}

void Solver::analyze(ClauseRef conflictClause, std::vector<Lit>& learnt,
                     int& backtrackLevel) {
  learnt.clear();
  learnt.push_back(0);  // placeholder for the asserting literal
  int counter = 0;
  Lit asserting = kUndef;
  int trailIndex = static_cast<int>(trail_.size()) - 1;
  ClauseRef clauseRef = conflictClause;

  // First-UIP resolution walk backwards over the trail.
  do {
    if (clauseLearnt(clauseRef)) bumpClause(clauseRef);
    std::uint32_t start = (asserting == kUndef) ? 0 : 1;
    const std::uint32_t size = clauseSize(clauseRef);
    for (std::uint32_t i = start; i < size; ++i) {
      Lit q = litAt(clauseRef, i);
      int var = varOf(q);
      if (seen_[var] || level_[var] == 0) continue;
      seen_[var] = 1;
      bumpVar(var);
      if (level_[var] == currentLevel()) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Find the next literal on the current level to resolve on.
    while (!seen_[varOf(trail_[trailIndex])]) --trailIndex;
    asserting = trail_[trailIndex];
    --trailIndex;
    seen_[varOf(asserting)] = 0;
    clauseRef = reason_[varOf(asserting)];
    --counter;
  } while (counter > 0);
  learnt[0] = negate(asserting);

  // Conflict-clause minimisation: drop literals implied by the rest.
  std::uint32_t abstractLevels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstractLevels |= 1u << (level_[varOf(learnt[i])] & 31);
  }
  std::vector<Lit> allMarked(learnt.begin(), learnt.end());
  std::vector<Lit> minimised;
  minimised.push_back(learnt[0]);
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    int var = varOf(learnt[i]);
    if (reason_[var] == kNullRef || !litRedundant(learnt[i], abstractLevels)) {
      minimised.push_back(learnt[i]);
    }
  }
  learnt.swap(minimised);

  // Clear every flag set in the resolution walk, including literals that the
  // minimisation dropped (litRedundant cleans up after itself).
  for (Lit l : allMarked) seen_[varOf(l)] = 0;

  // Compute the backtrack level: second-highest level in the clause.
  if (learnt.size() == 1) {
    backtrackLevel = 0;
  } else {
    std::size_t maxIdx = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[varOf(learnt[i])] > level_[varOf(learnt[maxIdx])]) maxIdx = i;
    }
    std::swap(learnt[1], learnt[maxIdx]);
    backtrackLevel = level_[varOf(learnt[1])];
  }
}

bool Solver::litRedundant(Lit l, std::uint32_t abstractLevels) {
  analyzeStack_.clear();
  analyzeStack_.push_back(l);
  std::vector<int> toClear;
  while (!analyzeStack_.empty()) {
    Lit current = analyzeStack_.back();
    analyzeStack_.pop_back();
    const ClauseRef ref = reason_[varOf(current)];
    const std::uint32_t size = clauseSize(ref);
    for (std::uint32_t i = 1; i < size; ++i) {
      Lit p = litAt(ref, i);
      int var = varOf(p);
      if (seen_[var] || level_[var] == 0) continue;
      if (reason_[var] == kNullRef ||
          ((1u << (level_[var] & 31)) & abstractLevels) == 0) {
        for (int cleared : toClear) seen_[cleared] = 0;
        return false;
      }
      seen_[var] = 1;
      toClear.push_back(var);
      analyzeStack_.push_back(p);
    }
  }
  for (int cleared : toClear) seen_[cleared] = 0;
  return true;
}

void Solver::backtrackTo(int targetLevel) {
  if (currentLevel() <= targetLevel) return;
  int boundary = trailLimits_[targetLevel];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= boundary; --i) {
    int var = varOf(trail_[i]);
    assigns_[var] = kUnassigned;
    reason_[var] = kNullRef;
    if (heapPosition_[var] < 0) heapInsert(var);
  }
  trail_.resize(boundary);
  trailLimits_.resize(targetLevel);
  propagationHead_ = boundary;
}

Solver::Lit Solver::pickBranchLit() {
  while (!heapEmpty()) {
    int var = heapPop();
    if (assigns_[var] == kUnassigned) {
      return mkLit(var, savedPhase_[var] != 0);
    }
  }
  return kUndef;
}

void Solver::bumpVar(int var) {
  activity_[var] += varActivityIncrement_;
  if (activity_[var] > kRescaleLimit) {
    for (double& a : activity_) a *= 1e-100;
    varActivityIncrement_ *= 1e-100;
  }
  if (heapPosition_[var] >= 0) heapUpdate(var);
}

void Solver::bumpClause(ClauseRef ref) {
  float bumped =
      clauseActivity(ref) + static_cast<float>(clauseActivityIncrement_);
  setClauseActivity(ref, bumped);
  if (bumped > kClauseRescaleLimit) rescaleClauseActivities();
}

void Solver::rescaleClauseActivities() {
  for (ClauseRef learntRef : learntIndices_) {
    setClauseActivity(learntRef,
                      clauseActivity(learntRef) *
                          static_cast<float>(kClauseRescaleFactor));
  }
  clauseActivityIncrement_ *= kClauseRescaleFactor;
}

void Solver::decayActivities() {
  varActivityIncrement_ /= kVarDecay;
  clauseActivityIncrement_ /= kClauseDecay;
  // The increment itself must stay representable in the float activity
  // header word even when no clause has been bumped for a long stretch.
  if (clauseActivityIncrement_ > static_cast<double>(kClauseRescaleLimit)) {
    rescaleClauseActivities();
  }
}

void Solver::markClauseDeleted(ClauseRef ref) {
  arena_[ref + 1] |= kDeletedFlag;
  wastedWords_ += kHeaderWords + clauseSize(ref);
  --stats_.liveClauses;
  stats_.liveLiterals -= static_cast<std::int64_t>(clauseSize(ref));
}

void Solver::scrubDeletedWatchers() {
  for (std::vector<Watcher>& watchList : watches_) {
    std::size_t keep = 0;
    for (const Watcher& w : watchList) {
      if (!clauseDeleted(w.clause)) watchList[keep++] = w;
    }
    watchList.resize(keep);
  }
}

std::size_t Solver::watcherCount() const {
  std::size_t total = 0;
  for (const std::vector<Watcher>& watchList : watches_) {
    total += watchList.size();
  }
  return total;
}

void Solver::reduceLearntDb() {
  // Keep the better half (low LBD, high activity); never delete reasons.
  // Reason clauses are marked with a header flag (cleared again below)
  // instead of a per-call clauses-sized bool buffer.
  std::vector<ClauseRef> candidates;
  for (ClauseRef ref : learntIndices_) {
    if (!clauseDeleted(ref)) candidates.push_back(ref);
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](ClauseRef a, ClauseRef b) {
              if (clauseLbd(a) != clauseLbd(b)) {
                return clauseLbd(a) < clauseLbd(b);
              }
              return clauseActivity(a) > clauseActivity(b);
            });
  for (Lit l : trail_) {
    ClauseRef r = reason_[varOf(l)];
    if (r != kNullRef) arena_[r + 1] |= kReasonFlag;
  }
  bool deletedAny = false;
  for (std::size_t i = candidates.size() / 2; i < candidates.size(); ++i) {
    ClauseRef ref = candidates[i];
    if ((arena_[ref + 1] & kReasonFlag) || clauseLbd(ref) <= 2) continue;
    markClauseDeleted(ref);
    ++stats_.learntDeleted;
    deletedAny = true;
  }
  for (Lit l : trail_) {
    ClauseRef r = reason_[varOf(l)];
    if (r != kNullRef) arena_[r + 1] &= ~kReasonFlag;
  }
  learntIndices_.assign(candidates.begin(), candidates.end());
  learntIndices_.erase(
      std::remove_if(learntIndices_.begin(), learntIndices_.end(),
                     [this](ClauseRef ref) { return clauseDeleted(ref); }),
      learntIndices_.end());
  if (deletedAny) {
    // Eager watcher hygiene: without this sweep, a watcher whose blocker
    // stays true would keep referencing the reclaimed clause until the
    // blocker is unassigned AND its list happens to be traversed.
    scrubDeletedWatchers();
    maybeGarbageCollect();
  }
}

void Solver::compactDatabase() {
  if (unsatisfiable_ || currentLevel() != 0) return;
  // Level-0 facts are permanent; their reason clauses are never walked
  // again (conflict analysis skips level-0 literals), so clear the links
  // before purging -- a satisfied reason clause must not outlive as a
  // dangling ref.
  for (Lit l : trail_) reason_[varOf(l)] = kNullRef;
  bool purgedAny = false;
  for (ClauseRef ref = 0; ref < static_cast<ClauseRef>(arena_.size());
       ref += kHeaderWords + clauseSize(ref)) {
    if (clauseDeleted(ref)) continue;
    bool satisfied = false;
    const std::uint32_t size = clauseSize(ref);
    for (std::uint32_t i = 0; i < size; ++i) {
      Lit l = litAt(ref, i);
      if (level_[varOf(l)] == 0 && litValue(l) == kTrue) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) continue;
    markClauseDeleted(ref);
    if (clauseLearnt(ref)) ++stats_.learntDeleted;
    purgedAny = true;
  }
  if (!purgedAny) return;
  // Eagerly drop watchers of purged clauses (propagate() would only unlink
  // them lazily on traversal) so the watch lists shrink with the database.
  scrubDeletedWatchers();
  learntIndices_.erase(
      std::remove_if(learntIndices_.begin(), learntIndices_.end(),
                     [this](ClauseRef ref) { return clauseDeleted(ref); }),
      learntIndices_.end());
  maybeGarbageCollect();
}

void Solver::maybeGarbageCollect() {
  if (wastedWords_ == 0) return;
  if (static_cast<double>(wastedWords_) <
      gcDeadFraction_ * static_cast<double>(arena_.size())) {
    return;
  }
  garbageCollect();
}

void Solver::garbageCollect() {
  // Mark-and-compact into a fresh buffer: walk the old arena in address
  // order, copy each live clause forward, and leave a forwarding ref in the
  // old header (kRelocatedFlag + word 2). Then every live reference --
  // watch lists, reasons, learnt indices -- is rewritten through the
  // forwarding refs. References move, clauses never change, so every
  // caller-facing contract (cores, models, Unknown resume, stats) is
  // untouched; the fuzz suite drives this with a tiny threshold.
  std::vector<std::uint32_t> to;
  to.reserve(arena_.size() - wastedWords_);
  for (std::size_t ref = 0; ref < arena_.size();) {
    const std::size_t words = kHeaderWords + arena_[ref];
    if (!(arena_[ref + 1] & kDeletedFlag)) {
      const ClauseRef newRef = static_cast<ClauseRef>(to.size());
      to.insert(to.end(), arena_.begin() + static_cast<std::ptrdiff_t>(ref),
                arena_.begin() + static_cast<std::ptrdiff_t>(ref + words));
      arena_[ref + 1] |= kRelocatedFlag;
      arena_[ref + 2] = newRef;
    }
    ref += words;
  }
  for (std::vector<Watcher>& watchList : watches_) {
    std::size_t keep = 0;
    for (Watcher w : watchList) {
      if (arena_[w.clause + 1] & kRelocatedFlag) {
        w.clause = arena_[w.clause + 2];
        watchList[keep++] = w;
      }
      // else: deleted clause; the eager scrub already dropped these, but
      // dropping here too keeps GC safe from any future lazy caller.
    }
    watchList.resize(keep);
  }
  for (ClauseRef& r : reason_) {
    if (r == kNullRef) continue;
    // Live reasons are never deleted (reduceLearntDb marks them, and
    // compactDatabase detaches level-0 reasons before purging).
    assert(arena_[r + 1] & kRelocatedFlag);
    r = arena_[r + 2];
  }
  for (ClauseRef& r : learntIndices_) {
    assert(arena_[r + 1] & kRelocatedFlag);
    r = arena_[r + 2];
  }
  arena_.swap(to);
  wastedWords_ = 0;
  ++stats_.gcRuns;
}

std::int64_t Solver::luby(std::int64_t i) {
  // MiniSat's formulation: find the finite subsequence containing index i
  // (0-based) and the position of i within it.
  std::int64_t size = 1;
  std::int64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return 1LL << seq;
}

Result Solver::solve(std::int64_t conflictBudget) {
  return solve({}, conflictBudget);
}

Result Solver::solve(const std::vector<int>& assumptions,
                     std::int64_t conflictBudget) {
  // Per-call telemetry export, on every return path: the deltas of the
  // cumulative counters feed the process counters, the live clause-database
  // size the gauges. O(1) per solve (the live fields are maintained
  // incrementally).
  struct TelemetryExport {
    Solver& self;
    SolverStats before;
    explicit TelemetryExport(Solver& solver)
        : self(solver), before(solver.stats_) {}
    ~TelemetryExport() {
      namespace tm = lclgrid::telemetry;
      static const tm::Counter solves = tm::counter("sat.solves");
      static const tm::Counter conflicts = tm::counter("sat.conflicts");
      static const tm::Counter decisions = tm::counter("sat.decisions");
      static const tm::Counter propagations = tm::counter("sat.propagations");
      static const tm::Counter restarts = tm::counter("sat.restarts");
      static const tm::Counter learnt = tm::counter("sat.learnt_clauses");
      static const tm::Counter deleted = tm::counter("sat.learnt_deleted");
      static const tm::Counter gcRuns = tm::counter("sat.gc_runs");
      static const tm::Gauge liveClauses = tm::gauge("sat.live_clauses");
      static const tm::Gauge liveLiterals = tm::gauge("sat.live_literals");
      static const tm::Gauge arenaBytes = tm::gauge("sat.arena_bytes");
      static const tm::Histogram perSolve =
          tm::histogram("sat.conflicts_per_solve");
      const SolverStats& now = self.stats_;
      solves.increment();
      conflicts.add(now.conflicts - before.conflicts);
      decisions.add(now.decisions - before.decisions);
      propagations.add(now.propagations - before.propagations);
      restarts.add(now.restarts - before.restarts);
      learnt.add(now.learntClauses - before.learntClauses);
      deleted.add(now.learntDeleted - before.learntDeleted);
      gcRuns.add(now.gcRuns - before.gcRuns);
      liveClauses.set(now.liveClauses);
      liveLiterals.set(now.liveLiterals);
      arenaBytes.set(static_cast<std::int64_t>(self.arenaBytes()));
      perSolve.record(now.conflicts - before.conflicts);
    }
  } telemetryExport(*this);
  telemetry::ScopedSpan span("sat/solve");

  conflictCore_.clear();
  if (unsatisfiable_) return Result::Unsat;
  if (propagate() != kNullRef) {
    unsatisfiable_ = true;
    return Result::Unsat;
  }

  std::vector<Lit> assumps;
  assumps.reserve(assumptions.size());
  for (int d : assumptions) assumps.push_back(fromDimacs(d));

  std::int64_t restartNumber = 0;
  std::int64_t conflictsUntilRestart = kRestartBase * luby(restartNumber);
  std::int64_t conflictsAtStart = stats_.conflicts;
  std::int64_t learntLimit =
      std::max<std::int64_t>(2000, stats_.liveClauses / 3);

  std::vector<Lit> learnt;
  while (true) {
    ClauseRef conflictClause = propagate();
    if (conflictClause != kNullRef) {
      ++stats_.conflicts;
      if (currentLevel() == 0) {
        unsatisfiable_ = true;
        return Result::Unsat;
      }
      int backtrackLevel = 0;
      analyze(conflictClause, learnt, backtrackLevel);
      backtrackTo(backtrackLevel);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNullRef);
      } else {
        ClauseRef ref = addClauseInternal(learnt, /*learnt=*/true);
        enqueue(litAt(ref, 0), ref);
      }
      decayActivities();

      if (conflictBudget >= 0 &&
          stats_.conflicts - conflictsAtStart >= conflictBudget) {
        backtrackTo(0);
        return Result::Unknown;
      }
      if (--conflictsUntilRestart <= 0) {
        ++stats_.restarts;
        ++restartNumber;
        conflictsUntilRestart = kRestartBase * luby(restartNumber);
        backtrackTo(0);
      }
      if (static_cast<std::int64_t>(learntIndices_.size()) > learntLimit) {
        reduceLearntDb();
        learntLimit += learntLimit / 10;
      }
    } else {
      // Place pending assumptions as pseudo-decisions below real decisions;
      // a restart or conflict backjump unwinds them and this loop replays
      // the remainder, so assumptions always occupy the lowest levels.
      Lit next = kUndef;
      while (currentLevel() < static_cast<int>(assumps.size())) {
        Lit p = assumps[static_cast<std::size_t>(currentLevel())];
        std::uint8_t value = litValue(p);
        if (value == kTrue) {
          // Already implied: open an empty level so level indices keep
          // lining up with assumption positions.
          trailLimits_.push_back(static_cast<int>(trail_.size()));
        } else if (value == kFalse) {
          analyzeFinal(p);
          backtrackTo(0);
          return Result::Unsat;  // unsat under assumptions; solver stays ok()
        } else {
          next = p;
          break;
        }
      }
      if (next == kUndef) {
        next = pickBranchLit();
        if (next == kUndef) {  // all variables assigned
          captureModel();
          backtrackTo(0);
          return Result::Sat;
        }
        ++stats_.decisions;
      }
      trailLimits_.push_back(static_cast<int>(trail_.size()));
      enqueue(next, kNullRef);
    }
  }
}

void Solver::analyzeFinal(Lit failedAssumption) {
  conflictCore_.clear();
  conflictCore_.push_back(toDimacs(failedAssumption));
  if (currentLevel() == 0) return;
  seen_[varOf(failedAssumption)] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trailLimits_[0]; --i) {
    int var = varOf(trail_[i]);
    if (!seen_[var]) continue;
    if (reason_[var] == kNullRef) {
      // A decision below the first real decision level is an assumption:
      // the trail literal is the assumption as passed by the caller.
      conflictCore_.push_back(toDimacs(trail_[i]));
    } else {
      const ClauseRef ref = reason_[var];
      const std::uint32_t size = clauseSize(ref);
      for (std::uint32_t j = 1; j < size; ++j) {
        int other = varOf(litAt(ref, j));
        if (level_[other] > 0) seen_[other] = 1;
      }
    }
    seen_[var] = 0;
  }
  seen_[varOf(failedAssumption)] = 0;
}

void Solver::captureModel() {
  model_.assign(assigns_.begin(), assigns_.end());
}

bool Solver::modelValue(int dimacsVar) const {
  if (dimacsVar <= 0 ||
      static_cast<std::size_t>(dimacsVar) > model_.size()) {
    throw std::out_of_range("modelValue: unknown variable");
  }
  return model_[static_cast<std::size_t>(dimacsVar) - 1] == kTrue;
}

// --- activity heap -----------------------------------------------------------

void Solver::heapInsert(int var) {
  heapPosition_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heapSiftUp(heapPosition_[var]);
}

void Solver::heapUpdate(int var) { heapSiftUp(heapPosition_[var]); }

int Solver::heapPop() {
  int top = heap_[0];
  heapPosition_[top] = -1;
  int last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heapPosition_[last] = 0;
    heapSiftDown(0);
  }
  return top;
}

void Solver::heapSiftUp(int pos) {
  int var = heap_[pos];
  while (pos > 0) {
    int parent = (pos - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[var]) break;
    heap_[pos] = heap_[parent];
    heapPosition_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = var;
  heapPosition_[var] = pos;
}

void Solver::heapSiftDown(int pos) {
  int var = heap_[pos];
  int count = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * pos + 1;
    if (child >= count) break;
    if (child + 1 < count &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[var]) break;
    heap_[pos] = heap_[child];
    heapPosition_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = var;
  heapPosition_[var] = pos;
}

}  // namespace lclgrid::sat

//===- perfbench/src/Pipeline.h - One op, untraced or traced --*- C++ -*-===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark op is what `argus <file>` does with its defaults: render
/// the coherence warnings, then the diagnostic and the bottom-up view of
/// every failing tree, then destroy the session. Two implementations:
///
///  - the untraced path goes through the engine's public entry points
///    (engine::Session, engine::EditSession), exactly as the CLI does;
///  - the traced path calls each layer's public function directly, in the
///    engine's order, inside a span per layer, so index and coherence get
///    separate spans and teardown gets its own.
///
/// Both return the rendered bytes (which must agree) and the facts the
/// reference checks read. Facts are gathered outside every timed region.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Trace.h"

#include "engine/EditSession.h"
#include "engine/Session.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What the reference checks read from one op's results (first failing
/// tree only; every workload has exactly one).
struct Facts {
  bool ParseOk = false;
  size_t NumTrees = 0;
  std::string ErrorCode;
  size_t FailedLeaves = 0;
  /// Printed predicates of the ranked failed leaves, best first.
  std::vector<std::string> Ranked;
  /// Index in Ranked of the first root_cause annotation; Ranked.size()
  /// when no ranked leaf carries it.
  size_t TruthRank = 0;
  /// True when a root_cause annotation is the tree root's predicate.
  bool TruthIsRoot = false;
};

/// Work counts of one traced op, read from each layer's own results.
struct LayerCounts {
  uint64_t SourceBytes = 0;
  uint64_t Impls = 0;
  uint64_t ImplsSubsumed = 0;
  uint64_t CoherenceErrors = 0;
  uint64_t GoalEvaluations = 0;
  uint64_t SolverSteps = 0;
  uint64_t FixpointRounds = 0;
  uint64_t IndexBucketHits = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheInserts = 0;
  uint64_t CacheInsertsRejected = 0;
  uint64_t CacheCrossRevHits = 0;
  uint64_t CacheDepMisses = 0;
  uint64_t TreeGoals = 0;
  uint64_t SnapshotsDropped = 0;
  uint64_t FailedLeaves = 0;
  uint64_t DNFConjuncts = 0;
  uint64_t DNFWordsTouched = 0;
  uint64_t DiagnosticBytes = 0;
  uint64_t InterfaceBytes = 0;
  uint64_t ImplsInvalidated = 0;
};

struct OpResult {
  /// Wall, process-CPU and thread-CPU seconds of the op, teardown
  /// included, fact gathering excluded.
  Stamp Time;
  std::string Bytes;
  Facts F;
  /// Untraced path only: the engine's statistics for the op.
  argus::engine::SessionStats Stats;
  /// Traced path only.
  LayerCounts Counts;
};

/// The session options `argus <file>` uses: serial, cache off.
argus::engine::SessionOptions cliDefaults();

/// Untraced: a fresh engine::Session, rendered, then destroyed.
OpResult runSessionOp(const std::string &Name, const std::string &Source,
                      const argus::engine::SessionOptions &Opts);

/// Untraced: the next revision of \p Edit, rendered. The previous
/// revision's Session is destroyed inside apply(), so each op pays one
/// teardown.
OpResult runEditOp(argus::engine::EditSession &Edit, const std::string &Source);

/// What an edit session carries from one revision to the next on the
/// traced path: the goal cache, and the previous revision's sorted impl
/// fingerprints, from which engine::EditSession computes
/// impls_invalidated.
struct EditState {
  argus::GoalCache Cache;
  std::vector<uint64_t> PrevImplFps;
  bool First = true;
};

/// Traced: the same op through direct layer calls, one span per layer
/// under one "engine.op" span carrying \p Op. With \p Edit the op is the
/// next revision of an edit session (cache shared across revisions);
/// without, the cache is off.
OpResult runTracedOp(const std::string &Name, const std::string &Source,
                     EditState *Edit, Tracer &T, uint64_t Op);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H

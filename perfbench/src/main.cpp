//===- perfbench/src/main.cpp - The end-to-end benchmark ------*- C++ -*-===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// argus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 [--expect <file>] [--trace-events <file>]
///                 [--corrupt-reference]
///
/// Runs one workload single-threaded, in process, as a closed loop with
/// one client: the next op starts when the previous one returns. One op
/// is what `argus <file>` does with its defaults (see Pipeline.h). Every
/// op is checked against a reference that does not come from the solver.
///
/// Workloads:
///  - lib10k_cold: generated lib10k libraries, cache off; one op is one
///    program. Reference: the generator's manifest.
///  - paper_corpus: the 17-program evaluation suite, cache off; one op is
///    one program. Reference: the hand-written expectations file.
///  - edit_session: an EditSession (cache shared, as --edit-script does)
///    over a generated lib1k library and a seeded edit stream; one op is
///    one revision. Reference: the manifest, plus the bytes of a cold
///    Session of the same revision, run outside every timed region.
///
/// --trace 0 measures the end-to-end metrics: each input's fastest
/// repetition, each op on the vCPU a probe finds quietest, scaled by that
/// probe's speed over the run (see Workload::numSlots and Placement).
/// --trace 1 is a separate run over the same ops that also runs each op
/// through the traced path,
/// checks its bytes against the untraced path, and reports per-layer
/// metrics. The last line of stdout is the result as one JSON object.
///
//===----------------------------------------------------------------------===//

#include "EditStream.h"
#include "Pipeline.h"
#include "Trace.h"

#include "corpus/Corpus.h"
#include "corpus/ProgramGen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace argus;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Expect;
  std::string TraceEvents;
  bool CorruptReference = false;
};

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "argus_perfbench: %s\n", Message.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--corrupt-reference") {
      A.CorruptReference = true;
      continue;
    }
    if (I + 1 >= Argc)
      die("missing value for " + Flag);
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        die("--trace takes 0 or 1");
      A.Trace = Value == "1";
      HaveTrace = true;
    } else if (Flag == "--expect") {
      A.Expect = Value;
    } else if (Flag == "--trace-events") {
      A.TraceEvents = Value;
    } else {
      die("unknown option " + Flag);
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    die("usage: argus_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--expect <file>] [--trace-events <file>] "
        "[--corrupt-reference]");
  return A;
}

//===----------------------------------------------------------------------===//
// References
//===----------------------------------------------------------------------===//

/// A generated program's manifest: the planted root cause must be the
/// failing leaf at inertia rank Rank of Leaves.
struct ManifestRef {
  std::string RootCause;
  size_t Rank = 0;
  size_t Leaves = 0;
};

/// One row of the hand-written paper_corpus expectations.
struct Expectation {
  std::string ErrorCode;
  size_t Leaves = 0;
  bool TruthAtRoot = false; ///< The annotation names the tree root.
  size_t Rank = 0;
};

std::string checkManifest(const Facts &F, const ManifestRef &M) {
  if (!F.ParseOk)
    return "parse failed";
  if (F.NumTrees != 1)
    return std::to_string(F.NumTrees) + " failing trees";
  if (F.Ranked.size() != M.Leaves)
    return std::to_string(F.Ranked.size()) + " ranked leaves, expected " +
           std::to_string(M.Leaves);
  if (M.Rank >= F.Ranked.size() || F.Ranked[M.Rank] != M.RootCause ||
      F.TruthRank != M.Rank)
    return "root cause not at rank " + std::to_string(M.Rank);
  return "";
}

std::string checkExpectation(const Facts &F, const Expectation &E) {
  if (!F.ParseOk)
    return "parse failed";
  if (F.NumTrees != 1)
    return std::to_string(F.NumTrees) + " failing trees";
  if (F.ErrorCode != E.ErrorCode)
    return "error code " + F.ErrorCode + ", expected " + E.ErrorCode;
  if (F.FailedLeaves != E.Leaves)
    return std::to_string(F.FailedLeaves) + " failed leaves, expected " +
           std::to_string(E.Leaves);
  if (E.TruthAtRoot) {
    if (!F.TruthIsRoot || F.TruthRank != F.Ranked.size())
      return "root cause is not the unranked tree root";
  } else if (F.TruthRank != E.Rank) {
    return "root cause at rank " + std::to_string(F.TruthRank) +
           ", expected " + std::to_string(E.Rank);
  }
  return "";
}

/// Reads "program error_code failed_leaves truth_rank" rows; '#' starts a
/// comment line and truth_rank is a number or "root".
std::map<std::string, Expectation> readExpectations(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read expectations file " + Path);
  std::map<std::string, Expectation> Rows;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Id, Rank;
    Expectation E;
    if (!(Fields >> Id >> E.ErrorCode >> E.Leaves >> Rank))
      die("malformed expectations row: " + Line);
    E.TruthAtRoot = Rank == "root";
    if (!E.TruthAtRoot)
      E.Rank = std::stoul(Rank);
    Rows[Id] = E;
  }
  return Rows;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What one op contributes to the run.
struct OpOutcome {
  /// The input the op ran (see Workload::numSlots).
  size_t Slot = 0;
  Stamp Untraced;
  std::string Failure; ///< Empty when the op matched its reference.
  /// Traced runs only.
  Stamp Traced;
  LayerCounts Counts;
  /// edit_session only: the edit that produced this revision.
  int Kind = -1;
  uint64_t CrossRevHits = 0;
  uint64_t SolverSteps = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// The distinct inputs a run repeats: pool programs, suite programs or
  /// revisions of the replayed edit stream. Each input's latency is its
  /// fastest repetition in the run, and the end-to-end figures are taken
  /// over inputs. Other tenants of the host slow a vCPU by up to ~1.6x
  /// for stretches from a tenth of a second to minutes, so the fastest of
  /// an input's repetitions is the steady estimate of the program's own
  /// cost; a change that slows the program slows every repetition.
  virtual size_t numSlots() const = 0;
  /// Ops per block. A run is a whole number of blocks, each holding the
  /// same mix of inputs.
  virtual size_t blockOps() const = 0;
  /// The leading ops whose counts and heap a traced run reports; the
  /// traced run always completes them, so those figures repeat exactly.
  virtual size_t countWindow() const = 0;
  /// Traced runs stop here even before the time is up: the trace file
  /// holds every span, and medians need no more.
  virtual size_t tracedCap() const { return SIZE_MAX; }
  /// Called before each block's first op; block 0's call precedes the
  /// first timed op. Runs the workload's set-up step here (into
  /// SetupTimes) on the blocks it chooses, so the repetitions spread over
  /// the run instead of sharing one burst of host weather. Input
  /// generation and reference work stay outside the timing.
  virtual void startBlock(uint64_t Block, bool Traced) = 0;
  virtual OpOutcome runOp(uint64_t Id, Tracer *T) = 0;

  /// Thread-CPU seconds of each set-up repetition.
  std::vector<double> SetupTimes;
  /// The first reference mismatch met during set-up.
  std::string SetupFailure;

protected:
  void noteSetup(const Stamp &Time, std::string Failure) {
    SetupTimes.push_back(Time.Thread);
    if (SetupFailure.empty())
      SetupFailure = std::move(Failure);
  }
};

/// Derives the I-th sub-seed of \p Seed.
uint64_t subSeed(uint64_t Seed, uint64_t I) {
  return SplitMix(Seed * 0x2545F4914F6CDD1Dull + I).next();
}

std::string bytesMismatch(const std::string &Traced, const std::string &Want) {
  return Traced == Want ? "" : "traced bytes differ from untraced bytes";
}

class Lib10kCold : public Workload {
public:
  static constexpr size_t PoolSize = 4;
  /// A set-up op every SetupEvery blocks (ops): ~9 in a 30 s run.
  static constexpr size_t SetupEvery = 6;

  Lib10kCold(uint64_t Seed, bool Corrupt) {
    for (size_t I = 0; I != PoolSize; ++I) {
      corpus::GenSpec Spec;
      std::string Error;
      if (!corpus::parseGenSpec("lib10k", Spec, Error))
        die(Error);
      Spec.Seed = 1 + subSeed(Seed, I) % 1000000; // Short program names.
      corpus::GeneratedProgram GP = corpus::generateProgram(Spec);
      Pool.push_back({GP.Manifest.Id + ".tl", std::move(GP.Source),
                      {GP.Manifest.RootCause, GP.Manifest.ExpectedRank,
                       GP.Manifest.ExpectedLeaves}});
    }
    if (Corrupt)
      ++Pool[0].Ref.Rank;
  }

  /// The pool programs. A 30 s run repeats each ~10 times; its p50 and
  /// p90 are taken over the four programs' fastest times.
  size_t numSlots() const override { return PoolSize; }
  /// One op, so set-up repetitions can fall between any two ops.
  size_t blockOps() const override { return 1; }
  size_t countWindow() const override { return PoolSize; }

  /// The set-up step is the first op, untimed as latency.
  void startBlock(uint64_t Block, bool) override {
    if (Block % SetupEvery != 0)
      return;
    const Input &In = Pool[(Block / SetupEvery) % PoolSize];
    OpResult R = runSessionOp(In.Name, In.Source, cliDefaults());
    noteSetup(R.Time, checkManifest(R.F, In.Ref));
  }

  OpOutcome runOp(uint64_t Id, Tracer *T) override {
    const Input &In = Pool[Id % PoolSize];
    OpOutcome O;
    O.Slot = Id % PoolSize;
    OpResult R = runSessionOp(In.Name, In.Source, cliDefaults());
    O.Untraced = R.Time;
    O.Failure = checkManifest(R.F, In.Ref);
    if (O.Failure.empty() && R.Stats.failed())
      O.Failure = "session recorded a failure";
    if (T) {
      OpResult TR = runTracedOp(In.Name, In.Source, nullptr, *T, Id);
      O.Traced = TR.Time;
      O.Counts = TR.Counts;
      if (O.Failure.empty())
        O.Failure = bytesMismatch(TR.Bytes, R.Bytes);
      if (O.Failure.empty())
        O.Failure = checkManifest(TR.F, In.Ref);
    }
    return O;
  }

private:
  struct Input {
    std::string Name, Source;
    ManifestRef Ref;
  };
  std::vector<Input> Pool;
};

class PaperCorpus : public Workload {
public:
  static constexpr size_t BlockPasses = 20;

  PaperCorpus(uint64_t Seed, const std::string &ExpectPath, bool Corrupt)
      : Seed(Seed) {
    std::map<std::string, Expectation> Rows = readExpectations(ExpectPath);
    for (const CorpusEntry &Entry : evaluationSuite()) {
      auto It = Rows.find(Entry.Id);
      if (It == Rows.end())
        die("no expectation for " + Entry.Id);
      Suite.push_back({Entry.Id, Entry.Source, It->second});
      Rows.erase(It);
    }
    if (!Rows.empty())
      die("expectation for unknown program " + Rows.begin()->first);
    if (Corrupt)
      ++Suite[0].Want.Leaves;
  }

  /// The suite's programs, the same for every seed. A 30 s run repeats
  /// each thousands of times. The p90 over the 17 fastest times lies
  /// between the slowest ordinary program and the first overflow one.
  size_t numSlots() const override { return Suite.size(); }
  /// Twenty passes between set-up repetitions.
  size_t blockOps() const override { return BlockPasses * Suite.size(); }
  size_t countWindow() const override { return Suite.size(); }
  size_t tracedCap() const override { return 3 * blockOps(); }

  /// The set-up step is the first pass over the suite, one per block.
  void startBlock(uint64_t Block, bool) override {
    Stamp Time;
    std::string Failure;
    for (size_t I : passOrder(subSeed(~Seed, Block))) {
      OpResult R = runSessionOp(Suite[I].Id, Suite[I].Source, cliDefaults());
      Time = Time + R.Time;
      if (Failure.empty())
        Failure = checkExpectation(R.F, Suite[I].Want);
    }
    noteSetup(Time, Failure);
  }

  OpOutcome runOp(uint64_t Id, Tracer *T) override {
    size_t Pass = Id / Suite.size();
    if (Pass != OrderPass || Order.empty()) {
      Order = passOrder(subSeed(Seed, Pass));
      OrderPass = Pass;
    }
    OpOutcome O;
    O.Slot = Order[Id % Suite.size()];
    const Input &In = Suite[O.Slot];
    OpResult R = runSessionOp(In.Id, In.Source, cliDefaults());
    O.Untraced = R.Time;
    O.Failure = checkExpectation(R.F, In.Want);
    if (O.Failure.empty() && R.Stats.failed())
      O.Failure = "session recorded a failure";
    if (T) {
      OpResult TR = runTracedOp(In.Id, In.Source, nullptr, *T, Id);
      O.Traced = TR.Time;
      O.Counts = TR.Counts;
      if (O.Failure.empty())
        O.Failure = bytesMismatch(TR.Bytes, R.Bytes);
      if (O.Failure.empty())
        O.Failure = checkExpectation(TR.F, In.Want);
    }
    if (!O.Failure.empty())
      O.Failure = In.Id + ": " + O.Failure;
    return O;
  }

private:
  struct Input {
    std::string Id, Source;
    Expectation Want;
  };

  /// A seeded permutation of the suite.
  std::vector<size_t> passOrder(uint64_t PassSeed) const {
    std::vector<size_t> Out(Suite.size());
    for (size_t I = 0; I != Out.size(); ++I)
      Out[I] = I;
    SplitMix R(PassSeed);
    for (size_t I = Out.size(); I > 1; --I)
      std::swap(Out[I - 1], Out[R.below(I)]);
    return Out;
  }

  uint64_t Seed;
  std::vector<Input> Suite;
  std::vector<size_t> Order;
  size_t OrderPass = 0;
};

/// Edit sessions (cycles) of CycleRevisions timed revisions each, over one
/// fixed lib1k library (gen_lib1k_s1); the seed drives the edit stream.
/// Each cycle is a block: a fresh EditSession whose revision 1 is the
/// set-up (the cold solve that fills the cache), then the same stream
/// replayed, so the cycles of a run differ only in what the host did to
/// them. Restarting bounds the cache's growth, so peak RSS does not
/// depend on how many revisions fit in the run.
class EditSessionWorkload : public Workload {
public:
  static constexpr size_t CycleRevisions = 20;

  EditSessionWorkload(uint64_t Seed, bool Corrupt) : Seed(Seed) {
    corpus::GenSpec Spec;
    std::string Error;
    if (!corpus::parseGenSpec("lib1k", Spec, Error))
      die(Error);
    Spec.Seed = 1;
    corpus::GeneratedProgram GP = corpus::generateProgram(Spec);
    Name = GP.Manifest.Id + ".tl";
    Base = std::move(GP.Source);
    Ref = {GP.Manifest.RootCause, GP.Manifest.ExpectedRank,
           GP.Manifest.ExpectedLeaves};
    if (Corrupt)
      ++Ref.Leaves;
  }

  /// The revisions of a cycle, 5 of each edit kind. A 30 s run replays
  /// the cycle ~35 times, so each revision's fastest time is taken over
  /// ~35 repetitions.
  size_t numSlots() const override { return CycleRevisions; }
  size_t blockOps() const override { return CycleRevisions; }
  size_t countWindow() const override { return CycleRevisions; }
  size_t tracedCap() const override { return CycleRevisions; }

  void startBlock(uint64_t, bool Traced) override { startCycle(Traced); }

  OpOutcome runOp(uint64_t Id, Tracer *T) override {
    OpOutcome O;
    O.Slot = Id % CycleRevisions;
    O.Kind = static_cast<int>(Stream->next());
    Source = Stream->source();
    OpResult R = runEditOp(*Edit, Source);
    O.Untraced = R.Time;
    O.CrossRevHits = R.Stats.CacheCrossRevHits;
    O.SolverSteps = R.Stats.SolverSteps;
    O.Failure = check(R, 1 + Id % CycleRevisions);
    if (T) {
      OpResult TR = runTracedOp(Name, Source, Traced.get(), *T, Id);
      O.Traced = TR.Time;
      O.Counts = TR.Counts;
      if (O.Failure.empty())
        O.Failure = bytesMismatch(TR.Bytes, R.Bytes);
      if (O.Failure.empty())
        O.Failure = checkManifest(TR.F, Ref);
      if (O.Failure.empty() &&
          (TR.Counts.ImplsInvalidated != R.Stats.ImplsInvalidated ||
           TR.Counts.CacheCrossRevHits != R.Stats.CacheCrossRevHits))
        O.Failure = "traced edit counters differ from the EditSession's";
    }
    return O;
  }

private:
  /// `argus --edit-script` defaults: the EditSession's shared cache.
  static engine::SessionOptions editDefaults() {
    engine::SessionOptions Opts = cliDefaults();
    Opts.Cache = engine::CacheMode::Shared;
    return Opts;
  }

  /// A fresh EditSession and edit stream, and revision 1 (timed as set-up).
  void startCycle(bool WithTrace) {
    Stream = std::make_unique<EditStream>(Base, Seed);
    Source = Base;
    Edit.reset();
    Edit = std::make_unique<engine::EditSession>(Name, editDefaults());
    OpResult R = runEditOp(*Edit, Source);
    std::string Failure = check(R, 0);
    if (WithTrace) {
      // The traced path keeps edit state of its own, filled the same way.
      Traced = std::make_unique<EditState>();
      Tracer Unrecorded;
      OpResult TR = runTracedOp(Name, Source, Traced.get(), Unrecorded, 0);
      if (Failure.empty())
        Failure = bytesMismatch(TR.Bytes, R.Bytes);
    }
    noteSetup(R.Time, Failure);
  }

  /// The manifest, then the bytes of a cold Session of the same revision,
  /// run outside the op's timed region. Cycles replay one stream, so each
  /// revision's cold bytes are computed once, in the first cycle.
  std::string check(const OpResult &R, size_t Revision) {
    std::string Failure = checkManifest(R.F, Ref);
    if (Failure.empty() && R.Stats.failed())
      Failure = "session recorded a failure";
    if (ColdBytes.size() <= Revision) {
      ColdBytes.resize(Revision + 1);
      ColdBytes[Revision] = runSessionOp(Name, Source, cliDefaults()).Bytes;
    }
    if (Failure.empty() && ColdBytes[Revision] != R.Bytes)
      Failure = "revision bytes differ from a cold session";
    return Failure;
  }

  uint64_t Seed;
  std::string Name, Base;
  ManifestRef Ref;
  std::unique_ptr<EditStream> Stream;
  std::string Source; ///< The current revision.
  /// Cold-session bytes per revision of the cycle (0 is the base).
  std::vector<std::string> ColdBytes;
  std::unique_ptr<engine::EditSession> Edit;
  std::unique_ptr<EditState> Traced;
};

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile of \p V (which it sorts).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Per-layer metrics of a traced run. Times are medians over every traced
/// op; counts and heap are means over the count window.
std::vector<Metric> layerMetrics(const std::vector<OpOutcome> &Ops,
                                 const Tracer &T, size_t Window) {
  struct SpanMetric {
    const char *Span, *Metric;
  };
  const SpanMetric Timed[] = {
      {"tlang.parse", "tlang.parse_ms"},
      {"solver.index", "solver.index_ms"},
      {"solver.coherence", "solver.coherence_ms"},
      {"solver.solve", "solver.solve_ms"},
      {"extract.trees", "extract.trees_ms"},
      {"analysis.inertia", "analysis.inertia_ms"},
      {"diagnostics.render", "diagnostics.render_ms"},
      {"interface.bottom_up", "interface.bottom_up_ms"},
      {"engine.teardown", "engine.teardown_ms"},
  };
  const SpanMetric Heap[] = {
      {"tlang.parse", "tlang.parse_heap_mb"},
      {"solver.index", "solver.index_heap_mb"},
      {"solver.coherence", "solver.coherence_heap_mb"},
      {"solver.solve", "solver.solve_heap_mb"},
  };

  // Per op: seconds per span name, heap per span name, op self time.
  size_t N = Ops.size();
  std::map<std::string, std::vector<double>> Seconds, HeapBytes;
  std::vector<double> Self(N, 0);
  for (const SpanMetric &M : Timed)
    Seconds[M.Span].assign(N, 0);
  for (const SpanMetric &M : Heap)
    HeapBytes[M.Span].assign(N, 0);
  for (const perfbench::Span &S : T.spans()) {
    if (S.Op >= N)
      continue;
    if (S.Name == "engine.op")
      Self[S.Op] += S.selfSeconds();
    auto It = Seconds.find(S.Name);
    if (It != Seconds.end())
      It->second[S.Op] += S.seconds();
    auto HIt = HeapBytes.find(S.Name);
    if (HIt != HeapBytes.end())
      HIt->second[S.Op] += static_cast<double>(S.HeapDelta);
  }

  std::vector<Metric> Out;
  for (const SpanMetric &M : Timed)
    Out.push_back({M.Metric, quantile(Seconds[M.Span], 0.5) * 1e3, "ms"});
  Out.push_back({"engine.self_ms", quantile(Self, 0.5) * 1e3, "ms"});
  for (const SpanMetric &M : Heap) {
    double Sum = 0;
    for (size_t I = 0; I != Window; ++I)
      Sum += HeapBytes[M.Span][I];
    Out.push_back({M.Metric, Sum / static_cast<double>(Window) / 1048576.0,
                   "MB"});
  }

  auto Mean = [&](auto Field) {
    double Sum = 0;
    for (size_t I = 0; I != Window; ++I)
      Sum += static_cast<double>(Field(Ops[I]));
    return Sum / static_cast<double>(Window);
  };
#define PERFBENCH_COUNT(Name, Field, Unit)                                     \
  Out.push_back(                                                               \
      {Name, Mean([](const OpOutcome &O) { return O.Counts.Field; }), Unit})
  PERFBENCH_COUNT("tlang.source_kb", SourceBytes / 1024.0, "KB");
  PERFBENCH_COUNT("solver.impls", Impls, "count");
  PERFBENCH_COUNT("solver.impls_subsumed", ImplsSubsumed, "count");
  PERFBENCH_COUNT("solver.coherence_errors", CoherenceErrors, "count");
  PERFBENCH_COUNT("solver.goal_evaluations", GoalEvaluations, "count");
  PERFBENCH_COUNT("solver.solver_steps", SolverSteps, "count");
  PERFBENCH_COUNT("solver.fixpoint_rounds", FixpointRounds, "count");
  PERFBENCH_COUNT("solver.index_bucket_hits", IndexBucketHits, "count");
  PERFBENCH_COUNT("solver.cache_hits", CacheHits, "count");
  PERFBENCH_COUNT("solver.cache_misses", CacheMisses, "count");
  PERFBENCH_COUNT("solver.cache_inserts", CacheInserts, "count");
  PERFBENCH_COUNT("solver.cache_inserts_rejected", CacheInsertsRejected,
                  "count");
  PERFBENCH_COUNT("solver.cache_cross_rev_hits", CacheCrossRevHits, "count");
  PERFBENCH_COUNT("solver.cache_dep_misses", CacheDepMisses, "count");
  PERFBENCH_COUNT("extract.tree_goals", TreeGoals, "count");
  PERFBENCH_COUNT("extract.snapshots_dropped", SnapshotsDropped, "count");
  PERFBENCH_COUNT("analysis.failed_leaves", FailedLeaves, "count");
  PERFBENCH_COUNT("analysis.dnf_conjuncts", DNFConjuncts, "count");
  PERFBENCH_COUNT("analysis.dnf_words_touched", DNFWordsTouched, "count");
  PERFBENCH_COUNT("diagnostics.bytes", DiagnosticBytes, "bytes");
  PERFBENCH_COUNT("interface.bytes", InterfaceBytes, "bytes");
  PERFBENCH_COUNT("engine.impls_invalidated", ImplsInvalidated, "count");
#undef PERFBENCH_COUNT

  double Hits = Mean([](const OpOutcome &O) { return O.Counts.CacheHits; });
  double Lookups = Hits + Mean([](const OpOutcome &O) {
                     return O.Counts.CacheMisses;
                   });
  Out.push_back({"solver.cache_hit_ratio", Lookups ? Hits / Lookups : 0,
                 "ratio"});
  double Evals =
      Mean([](const OpOutcome &O) { return O.Counts.GoalEvaluations; });
  double Kept = Mean([](const OpOutcome &O) { return O.Counts.TreeGoals; });
  Out.push_back({"extract.goals_kept_ratio", Evals ? Kept / Evals : 0,
                 "ratio"});

  // Edit kinds over the window: each kind's share, and the cross-revision
  // cache hits a revision of that kind got, as a mean.
  for (size_t K = 0; K != NumEditKinds; ++K) {
    std::string Kind = editKindName(static_cast<EditKind>(K));
    double Count = 0, Hits = 0;
    for (size_t I = 0; I != Window; ++I)
      if (Ops[I].Kind == static_cast<int>(K)) {
        ++Count;
        Hits += static_cast<double>(Ops[I].Counts.CacheCrossRevHits);
      }
    Out.push_back({"edit." + Kind + "_share",
                   Count / static_cast<double>(Window), "ratio"});
    Out.push_back({"solver.cache_cross_rev_hits." + Kind,
                   Count ? Hits / Count : 0, "count"});
  }

  std::vector<double> Untraced, Traced;
  for (const OpOutcome &O : Ops) {
    Untraced.push_back(O.Untraced.Wall);
    Traced.push_back(O.Traced.Wall);
  }
  double Base = quantile(Untraced, 0.5);
  Out.push_back({"tracing.overhead_pct",
                 Base ? 100.0 * (quantile(Traced, 0.5) - Base) / Base : 0,
                 "%"});
  return Out;
}

/// One input's fastest untraced repetition (see Workload::numSlots).
struct SlotRecord {
  double Wall = 0, Cpu = 0;
  size_t Reps = 0;
  int Kind = -1; ///< edit_session: the edit that produced the revision.

  void note(const OpOutcome &O) {
    Wall = Reps ? std::min(Wall, O.Untraced.Wall) : O.Untraced.Wall;
    Cpu = Reps ? std::min(Cpu, O.Untraced.Cpu) : O.Untraced.Cpu;
    Kind = O.Kind;
    ++Reps;
  }
};

/// Per edit kind: ops, and their cross-revision hits and solver steps.
struct KindRecord {
  size_t Ops = 0;
  double Hits = 0, Steps = 0;
};

/// An untraced op re-picks its vCPU once this long has passed since the
/// last pick: before nearly every op of lib10k_cold and edit_session, and
/// about every 60 ops of paper_corpus. Set-up steps always start on a
/// fresh pick.
constexpr double PickSeconds = 0.02;

/// The probe's time (pinQuietestCpu) on an uncontended vCPU of the
/// reference host, a 4-vCPU KVM guest on an Intel Xeon: the 10th
/// percentile of the picked vCPUs' probe times in a quiet run.
constexpr double ReferenceProbeSeconds = 125e-6;

/// Where the ops ran: the vCPU of each pick, and the probe's time there.
struct Placement {
  std::vector<int> Cpus;
  std::vector<double> ProbeSeconds;
  double Last = 0;

  /// What the op timings are multiplied by. The fastest repetitions of a
  /// run ran at the host's best speed during that run, and that speed
  /// itself drifts by up to ~15% over minutes with the other tenants'
  /// load. The probe's 10th-percentile time measures it in the same run,
  /// so timings scaled by ReferenceProbeSeconds over it read in
  /// milliseconds of the reference vCPU, whatever the host did. The probe
  /// is the benchmark's own fixed code, so a change to the program moves
  /// the timings and not the scale.
  double scale() const { return scaleFor(quantile(ProbeSeconds, 0.1)); }
  /// What a set-up repetition that started on the latest pick is
  /// multiplied by. setup_s is a median over repetitions, and a median
  /// lands in the quiet or the slow state depending on how much of the
  /// run was quiet; scaling each repetition by the probe of its own start
  /// takes that state out. A set-up takes milliseconds, and a vCPU's
  /// state lasts for tenths of a second.
  double latestScale() const {
    return scaleFor(ProbeSeconds.empty() ? 0 : ProbeSeconds.back());
  }
  static double scaleFor(double ProbeTime) {
    return ProbeTime > 0 ? ReferenceProbeSeconds / ProbeTime : 1;
  }

  void pick() {
    CpuPick P = pinQuietestCpu();
    Cpus.push_back(P.Cpu);
    ProbeSeconds.push_back(P.ProbeSeconds);
    Last = wallNow();
  }
  void pickIfStale() {
    if (wallNow() - Last >= PickSeconds)
      pick();
  }
};

/// Human-readable lines before the result: the run's shape, where it
/// ran, and for the edit stream each edit kind's share, cross-revision
/// cache hits, solver steps and latency (p50 of its revisions' fastest
/// times).
void printRecord(const Args &A, size_t Ops, size_t Setups, size_t Failed,
                 const std::string &FirstFailure,
                 const std::vector<SlotRecord> &Slots,
                 const KindRecord (&Kinds)[NumEditKinds],
                 const Placement &Where) {
  size_t MinReps = SIZE_MAX, MaxReps = 0;
  for (const SlotRecord &S : Slots) {
    MinReps = std::min(MinReps, S.Reps);
    MaxReps = std::max(MaxReps, S.Reps);
  }
  std::printf("perfbench: workload=%s seed=%llu trace=%d ops=%zu inputs=%zu"
              " reps=%zu..%zu setups=%zu failed=%zu threads=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? 1 : 0, Ops, Slots.size(), MinReps, MaxReps, Setups,
              Failed, threadCount());
  std::map<int, size_t> Picks;
  for (int Cpu : Where.Cpus)
    ++Picks[Cpu];
  std::printf("perfbench: vcpu picks=%zu", Where.Cpus.size());
  for (const auto &[Cpu, N] : Picks)
    std::printf(" cpu%d=%zu", Cpu, N);
  std::printf(" probe_ms_p10=%.4f probe_ms_p50=%.4f probe_ms_p90=%.4f"
              " scale=%.4f\n",
              quantile(Where.ProbeSeconds, 0.1) * 1e3,
              quantile(Where.ProbeSeconds, 0.5) * 1e3,
              quantile(Where.ProbeSeconds, 0.9) * 1e3, Where.scale());
  if (!FirstFailure.empty())
    std::printf("perfbench: first failure: %s\n", FirstFailure.c_str());
  for (size_t K = 0; K != NumEditKinds; ++K) {
    const KindRecord &R = Kinds[K];
    if (!R.Ops)
      continue;
    std::vector<double> Fastest;
    for (const SlotRecord &S : Slots)
      if (S.Reps && S.Kind == static_cast<int>(K))
        Fastest.push_back(S.Wall);
    double N = static_cast<double>(R.Ops);
    std::printf("perfbench: edit %-8s share=%.3f cache_cross_rev_hits=%.2f"
                " solver_steps=%.0f latency_p50_ms=%.3f\n",
                editKindName(static_cast<EditKind>(K)),
                N / static_cast<double>(Ops), R.Hits / N, R.Steps / N,
                quantile(Fastest, 0.5) * 1e3);
  }
}

std::unique_ptr<Workload> makeWorkload(const Args &A) {
  if (A.Workload == "lib10k_cold")
    return std::make_unique<Lib10kCold>(A.Seed, A.CorruptReference);
  if (A.Workload == "paper_corpus") {
    if (A.Expect.empty())
      die("paper_corpus needs --expect <file>");
    return std::make_unique<PaperCorpus>(A.Seed, A.Expect,
                                         A.CorruptReference);
  }
  if (A.Workload == "edit_session")
    return std::make_unique<EditSessionWorkload>(A.Seed, A.CorruptReference);
  die("unknown workload " + A.Workload);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W;
  try {
    W = makeWorkload(A);
  } catch (const std::exception &E) {
    die(std::string("input generation failed: ") + E.what());
  }

  std::unique_ptr<Tracer> T;
  if (A.Trace)
    T = std::make_unique<Tracer>();
  std::vector<OpOutcome> Traced; // Traced runs keep every op.
  std::vector<SlotRecord> Slots(W->numSlots());
  KindRecord Kinds[NumEditKinds];
  Placement Where;
  std::vector<double> ScaledSetups;
  size_t Ops = 0, Failed = 0;
  std::string FirstFailure;
  double Start = wallNow();
  for (uint64_t Id = 0;; ++Id) {
    bool BlockStart = Id % W->blockOps() == 0;
    if (BlockStart) {
      bool TimeUp = wallNow() - Start >= A.Seconds;
      bool WindowDone = !A.Trace || Id >= W->countWindow();
      if ((TimeUp && WindowDone && Id > 0) || (A.Trace && Id >= W->tracedCap()))
        break;
    }
    OpOutcome O;
    bool Ran = false;
    try {
      if (BlockStart) {
        Where.pick();
        size_t Before = W->SetupTimes.size();
        W->startBlock(Id / W->blockOps(), A.Trace);
        for (size_t I = Before; I != W->SetupTimes.size(); ++I)
          ScaledSetups.push_back(W->SetupTimes[I] * Where.latestScale());
      }
      // A traced run picks before every op, so the probe's allocations
      // fall at the same points in every run and the heap figures repeat
      // exactly.
      if (A.Trace)
        Where.pick();
      else
        Where.pickIfStale();
      O = W->runOp(Id, T.get());
      Ran = true;
    } catch (const std::exception &E) {
      O.Failure = std::string("exception: ") + E.what();
    }
    ++Ops;
    if (!O.Failure.empty()) {
      ++Failed;
      if (FirstFailure.empty())
        FirstFailure = O.Failure;
    }
    if (Ran)
      Slots[O.Slot].note(O);
    if (O.Kind >= 0) {
      KindRecord &R = Kinds[O.Kind];
      ++R.Ops;
      R.Hits += static_cast<double>(O.CrossRevHits);
      R.Steps += static_cast<double>(O.SolverSteps);
    }
    if (A.Trace)
      Traced.push_back(std::move(O));
  }
  double PeakRss = peakRssMiB();
  if (FirstFailure.empty())
    FirstFailure = W->SetupFailure;

  printRecord(A, Ops, W->SetupTimes.size(), Failed, FirstFailure, Slots,
              Kinds, Where);
  bool Correct = Failed == 0 && W->SetupFailure.empty();

  std::vector<Metric> Metrics;
  if (A.Trace) {
    Metrics = layerMetrics(Traced, *T, W->countWindow());
    if (!A.TraceEvents.empty() && !T->writeChromeTrace(A.TraceEvents))
      die("cannot write " + A.TraceEvents);
  } else {
    // Each input's fastest repetition; CPU time is a mean over inputs.
    std::vector<double> Fastest;
    double CpuSum = 0;
    for (const SlotRecord &S : Slots)
      if (S.Reps) {
        Fastest.push_back(S.Wall);
        CpuSum += S.Cpu;
      }
    double Inputs = static_cast<double>(std::max<size_t>(Fastest.size(), 1));
    double P50 = quantile(Fastest, 0.5), P90 = quantile(Fastest, 0.9);
    double Cpu = CpuSum / Inputs, Setup = quantile(W->SetupTimes, 0.5);
    std::printf("perfbench: unscaled latency_p50_ms=%.4f latency_p90_ms=%.4f"
                " cpu_ms_per_op=%.4f setup_s=%.6f\n",
                P50 * 1e3, P90 * 1e3, Cpu * 1e3, Setup);
    double Scale = Where.scale();
    double N = static_cast<double>(Ops);
    Metrics = {
        {"latency_p50_ms", P50 * Scale * 1e3, "ms"},
        {"latency_p90_ms", P90 * Scale * 1e3, "ms"},
        {"cpu_ms_per_op", Cpu * Scale * 1e3, "ms"},
        {"peak_rss_mb", PeakRss, "MB"},
        {"correct_frac", (N - static_cast<double>(Failed)) / N, "ratio"},
        {"setup_s", quantile(ScaledSetups, 0.5), "s"},
    };
  }
  printResult(Correct, Ops, Failed, Metrics);
  return 0;
}

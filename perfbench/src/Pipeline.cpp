//===- perfbench/src/Pipeline.cpp -----------------------------*- C++ -*-===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "analysis/Inertia.h"
#include "diagnostics/Diagnostics.h"
#include "extract/Extract.h"
#include "interface/View.h"
#include "solver/Coherence.h"
#include "solver/Index.h"
#include "solver/Solver.h"
#include "tlang/Parser.h"
#include "tlang/Printer.h"

#include <algorithm>
#include <memory>
#include <optional>

namespace perfbench {

using namespace argus;

namespace {

std::string warningLine(const CoherenceError &Error) {
  return "warning: " + Error.Message + "\n";
}

std::string allHoldLine(size_t Goals) {
  return "all " + std::to_string(Goals) + " goal(s) hold.\n";
}

std::string treeHeader(size_t T, size_t NumTrees) {
  if (NumTrees < 2)
    return "";
  return "=== failing goal " + std::to_string(T + 1) + " of " +
         std::to_string(NumTrees) + " ===\n";
}

Facts gatherFacts(const Program &Prog, size_t NumTrees,
                  const InferenceTree *Tree, const InertiaResult *Inertia,
                  std::string ErrorCode) {
  Facts F;
  F.ParseOk = true;
  F.NumTrees = NumTrees;
  if (!Tree || !Inertia)
    return F;
  F.ErrorCode = std::move(ErrorCode);
  F.FailedLeaves = Tree->failedLeaves().size();
  TypePrinter Printer(Prog);
  F.TruthRank = Inertia->Order.size();
  for (size_t I = 0; I != Inertia->Order.size(); ++I) {
    const Predicate &Leaf = Tree->goal(Inertia->Order[I]).Pred;
    F.Ranked.push_back(Printer.print(Leaf));
    for (const Predicate &Truth : Prog.rootCauses())
      if (Leaf == Truth && F.TruthRank == Inertia->Order.size())
        F.TruthRank = I;
  }
  for (const Predicate &Truth : Prog.rootCauses())
    F.TruthIsRoot |= Tree->goal(Tree->rootId()).Pred == Truth;
  return F;
}

/// The CLI's default rendering (renderProgram with --diag --bottom-up).
std::string renderSession(engine::Session &S) {
  if (!S.parseOk())
    return S.parseErrorText();
  std::string Out;
  for (const CoherenceError &Error : S.coherence())
    Out += warningLine(Error);
  size_t NumTrees = S.numTrees();
  if (NumTrees == 0)
    return Out + allHoldLine(S.solve().FinalResults.size());
  for (size_t T = 0; T != NumTrees; ++T) {
    Out += treeHeader(T, NumTrees);
    Out += S.diagnosticText(T) + "\n";
    Out += S.bottomUpText(T) + "\n";
  }
  return Out;
}

Facts sessionFacts(engine::Session &S) {
  if (!S.parseOk())
    return Facts();
  if (S.numTrees() == 0)
    return gatherFacts(S.program(), 0, nullptr, nullptr, "");
  return gatherFacts(S.program(), S.numTrees(), &S.tree(0), &S.inertia(0),
                     S.diagnostic(0).ErrorCode);
}

/// engine::EditSession's invalidation count: the size of the symmetric
/// multiset difference of sorted impl fingerprints, an edited impl
/// counting once.
uint64_t fingerprintDiff(const std::vector<uint64_t> &A,
                         const std::vector<uint64_t> &B) {
  size_t I = 0, J = 0, OnlyA = 0, OnlyB = 0;
  while (I != A.size() || J != B.size()) {
    if (J == B.size() || (I != A.size() && A[I] < B[J])) {
      ++OnlyA;
      ++I;
    } else if (I == A.size() || B[J] < A[I]) {
      ++OnlyB;
      ++J;
    } else {
      ++I;
      ++J;
    }
  }
  return std::max(OnlyA, OnlyB);
}

} // namespace

engine::SessionOptions cliDefaults() { return engine::SessionOptions(); }

OpResult runSessionOp(const std::string &Name, const std::string &Source,
                      const engine::SessionOptions &Opts) {
  OpResult R;
  std::string Copy = Source;
  Stamp T0 = Stamp::now();
  auto S = std::make_unique<engine::Session>(Name, std::move(Copy), Opts);
  R.Bytes = renderSession(*S);
  Stamp T1 = Stamp::now();
  R.F = sessionFacts(*S);
  R.Stats = S->stats();
  Stamp T2 = Stamp::now();
  S.reset();
  R.Time = (T1 - T0) + (Stamp::now() - T2);
  return R;
}

OpResult runEditOp(engine::EditSession &Edit, const std::string &Source) {
  OpResult R;
  std::string Copy = Source;
  Stamp T0 = Stamp::now();
  engine::Session &S = Edit.apply(std::move(Copy));
  R.Bytes = renderSession(S);
  R.Time = Stamp::now() - T0;
  R.F = sessionFacts(S);
  R.Stats = S.stats();
  return R;
}

OpResult runTracedOp(const std::string &Name, const std::string &Source,
                     EditState *Edit, Tracer &T, uint64_t Op) {
  OpResult R;
  LayerCounts &N = R.Counts;
  std::string Src = Source;
  N.SourceBytes = Src.size();
  Stamp T0 = Stamp::now();
  Stamp Check;
  {
    ScopedSpan OpSpan(&T, "engine.op", Op);
    // Declared in engine::Session's member order, so destruction below
    // runs in the order the engine's destructor would.
    std::unique_ptr<argus::Session> Sess;
    std::unique_ptr<Program> Prog;
    ParseResult Parsed;
    std::vector<CoherenceError> Warnings;
    std::unique_ptr<Solver> TheSolver;
    std::optional<SolveOutcome> Outcome;
    std::optional<Extraction> Extracted;
    std::vector<InertiaResult> Inertia;
    std::string DiagCode0;

    {
      ScopedSpan S(&T, "tlang.parse", Op, /*Heap=*/true);
      Sess = std::make_unique<argus::Session>();
      Prog = std::make_unique<Program>(*Sess);
      Parsed = parseSource(*Prog, Name, Src);
    }
    if (Edit) {
      // EditSession::apply's own work, left in the op's self time.
      std::vector<uint64_t> Fps;
      if (Parsed.Success)
        for (uint32_t I = 0; I != Prog->impls().size(); ++I)
          Fps.push_back(Prog->implFingerprint(ImplId(I)));
      std::sort(Fps.begin(), Fps.end());
      N.ImplsInvalidated =
          Edit->First ? 0 : fingerprintDiff(Edit->PrevImplFps, Fps);
      Edit->PrevImplFps = std::move(Fps);
      Edit->First = false;
    }
    if (!Parsed.Success) {
      R.Bytes = Parsed.describe(Sess->sources());
    } else {
      {
        ScopedSpan S(&T, "solver.index", Op, /*Heap=*/true);
        SolverIndexStats Built = buildSolverIndex(*Prog, SolverIndexOptions());
        N.ImplsSubsumed = Built.ImplsSubsumed;
      }
      {
        ScopedSpan S(&T, "solver.coherence", Op, /*Heap=*/true);
        Warnings = checkCoherence(*Prog, CoherenceOptions()).Errors;
      }
      for (const CoherenceError &Error : Warnings)
        R.Bytes += warningLine(Error);
      {
        ScopedSpan S(&T, "solver.solve", Op, /*Heap=*/true);
        SolverOptions SOpts;
        SOpts.Cache = Edit ? &Edit->Cache : nullptr;
        TheSolver = std::make_unique<Solver>(*Prog, SOpts);
        Outcome = TheSolver->solve();
      }
      {
        ScopedSpan S(&T, "extract.trees", Op);
        Extracted = extractTrees(*Prog, *Outcome, TheSolver->inferContext(),
                                 ExtractOptions());
      }
      size_t NumTrees = Extracted->Trees.size();
      if (NumTrees == 0)
        R.Bytes += allHoldLine(Outcome->FinalResults.size());
      Inertia.reserve(NumTrees);
      for (size_t I = 0; I != NumTrees; ++I) {
        const InferenceTree &Tree = Extracted->Trees[I];
        R.Bytes += treeHeader(I, NumTrees);
        {
          ScopedSpan S(&T, "diagnostics.render", Op);
          DiagnosticRenderer Renderer(*Prog, DiagnosticOptions());
          RenderedDiagnostic Diag = Renderer.render(Tree);
          N.DiagnosticBytes += Diag.Text.size();
          R.Bytes += Diag.Text + "\n";
          if (I == 0)
            DiagCode0 = Diag.ErrorCode;
        }
        {
          ScopedSpan S(&T, "analysis.inertia", Op);
          AnalysisOptions AOpts;
          AOpts.Scratch = &Sess->scratch();
          Inertia.push_back(rankByInertia(*Prog, Tree, AOpts));
        }
        {
          ScopedSpan S(&T, "interface.bottom_up", Op);
          ArgusInterface UI(*Prog, Tree, Inertia.back().Order);
          std::string Text = UI.renderText();
          N.InterfaceBytes += Text.size();
          R.Bytes += Text + "\n";
        }
      }

      {
        ScopedSpan S(&T, "perfbench.check", Op);
        Stamp C0 = Stamp::now();
        R.F = gatherFacts(*Prog, NumTrees,
                          NumTrees ? &Extracted->Trees[0] : nullptr,
                          NumTrees ? &Inertia[0] : nullptr, DiagCode0);
        N.Impls = Prog->impls().size();
        N.CoherenceErrors = Warnings.size();
        N.GoalEvaluations = Outcome->NumEvaluations;
        N.SolverSteps = Outcome->NumSolverSteps;
        N.FixpointRounds = Outcome->RoundsUsed;
        N.IndexBucketHits = Outcome->NumIndexBucketHits;
        N.CacheHits = Outcome->NumCacheHits;
        N.CacheMisses = Outcome->NumCacheMisses;
        N.CacheInserts = Outcome->NumCacheInserts;
        N.CacheInsertsRejected = Outcome->NumCacheInsertsRejected;
        N.CacheCrossRevHits = Outcome->NumCacheCrossRevHits;
        N.CacheDepMisses = Outcome->NumCacheDepMisses;
        for (const InferenceTree &Tree : Extracted->Trees)
          N.TreeGoals += Tree.numGoals();
        N.SnapshotsDropped = Extracted->Stats.SnapshotsDropped;
        for (const InertiaResult &Ranked : Inertia) {
          N.FailedLeaves += Ranked.Order.size();
          N.DNFConjuncts += Ranked.MCS.size();
          N.DNFWordsTouched += Ranked.DNF.WordsTouched;
        }
        Check = Stamp::now() - C0;
      }
    }

    ScopedSpan S(&T, "engine.teardown", Op);
    Inertia.clear();
    Inertia.shrink_to_fit();
    Extracted.reset();
    Outcome.reset();
    TheSolver.reset();
    Warnings.clear();
    Warnings.shrink_to_fit();
    Prog.reset();
    Sess.reset();
    std::string().swap(Src);
  }
  R.Time = Stamp::now() - T0 - Check;
  return R;
}

} // namespace perfbench

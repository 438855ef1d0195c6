//===- perfbench/src/EditStream.h - Seeded single-line edits --*- C++ -*-===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded stream of single-line edits over a generated library
/// (corpus::generateProgram output), standing in for a developer editing
/// the file between runs. Every edit touches one local filler marker impl
/// ("impl TrN for SK;") whose (trait, struct) pair no goal needs, so all
/// background goals keep holding and the generator's manifest still
/// describes the one failing tree, FailRoot: FGoal, of every revision.
///
/// Edits repeat in blocks of four kinds; the seed picks lines and pairs:
///  - Add: inserts a filler impl line;
///  - Remove: deletes one, never as long as the block's added line;
///  - Lengthen: appends a trailing comment longer than any filler line;
///  - Retarget: swaps the trait (or struct) index for another of the same
///    digit count, so no byte offset in the file moves.
/// Cache keys and dependency fingerprints include source spans, so today
/// only the retarget lets the goal cache serve the root goals. The order
/// and lengths make the byte shift below the edited lines differ in every
/// other revision of a stream, so no length-changing revision finds its
/// spans where an earlier one left them, and its cost does not depend on
/// the seed's luck.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_EDITSTREAM_H
#define PERFBENCH_EDITSTREAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class EditKind : uint8_t { Add, Remove, Lengthen, Retarget };
constexpr size_t NumEditKinds = 4;
const char *editKindName(EditKind K);

/// splitmix64: the benchmark's own generator, so its inputs depend on
/// the seed alone.
class SplitMix {
public:
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }

private:
  uint64_t State;
};

class EditStream {
public:
  EditStream(const std::string &Base, uint64_t Seed);

  /// Applies the next edit; source() is then the new revision.
  EditKind next();
  std::string source() const;

private:
  struct Line {
    size_t Trait = 0, Struct = 0;
  };
  /// Parses Lines[I] as a local "impl TrN for SK;" filler impl.
  bool parseFiller(size_t I, Line &Out) const;
  bool pairFree(size_t Trait, size_t Struct) const;
  /// Indices of filler lines whose pair no goal needs.
  std::vector<size_t> editable() const;
  /// Rewrites line \p I to the pair (Trait, Struct).
  void setPair(size_t I, size_t Trait, size_t Struct);
  bool retarget();
  bool add();
  bool remove();
  bool lengthen();

  std::vector<std::string> Lines;
  std::vector<bool> TraitExt, StructExt;
  /// Pairs needed by goals, and pairs some impl line provides.
  std::vector<bool> Needed, Present;
  SplitMix Rng;
  size_t Next = 0;         ///< The next edit's kind.
  size_t AddedLength = 0;  ///< Length of the line the last add inserted.
};

} // namespace perfbench

#endif // PERFBENCH_EDITSTREAM_H

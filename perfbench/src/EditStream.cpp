//===- perfbench/src/EditStream.cpp ---------------------------*- C++ -*-===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "EditStream.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

const std::string ExternalAttr = "#[external] ";
/// Longer than any filler line, so the byte shift below the edit grows
/// by more in each block than an add and a remove can take back.
const std::string LengthenSuffix =
    " // lengthened: the impl keeps its meaning, its span grows";

/// The line without a leading #[external] attribute.
std::string stripExternal(const std::string &L, bool *WasExternal = nullptr) {
  bool Ext = L.rfind(ExternalAttr, 0) == 0;
  if (WasExternal)
    *WasExternal = Ext;
  return Ext ? L.substr(ExternalAttr.size()) : L;
}

/// sscanf of \p Fmt (ending in %n) that must consume the whole line.
bool matches(const std::string &L, const char *Fmt, size_t &A) {
  int End = -1;
  return std::sscanf(L.c_str(), Fmt, &A, &End) == 1 &&
         End == static_cast<int>(L.size());
}
bool matches(const std::string &L, const char *Fmt, size_t &A, size_t &B) {
  int End = -1;
  return std::sscanf(L.c_str(), Fmt, &A, &B, &End) == 2 &&
         End == static_cast<int>(L.size());
}
bool matches(const std::string &L, const char *Fmt, size_t &A, size_t &B,
             size_t &C) {
  int End = -1;
  return std::sscanf(L.c_str(), Fmt, &A, &B, &C, &End) == 3 &&
         End == static_cast<int>(L.size());
}

size_t digits(size_t N) {
  size_t D = 1;
  while (N >= 10) {
    N /= 10;
    ++D;
  }
  return D;
}

size_t powerOfTen(size_t D) {
  size_t P = 1;
  while (D--)
    P *= 10;
  return P;
}

void growTo(std::vector<bool> &V, size_t Index, bool Value) {
  if (V.size() <= Index)
    V.resize(Index + 1, false);
  V[Index] = Value;
}

} // namespace

const char *editKindName(EditKind K) {
  switch (K) {
  case EditKind::Add:
    return "add";
  case EditKind::Remove:
    return "remove";
  case EditKind::Lengthen:
    return "lengthen";
  case EditKind::Retarget:
    return "retarget";
  }
  return "unknown";
}

uint64_t SplitMix::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

EditStream::EditStream(const std::string &Base, uint64_t Seed) : Rng(Seed) {
  for (size_t Pos = 0; Pos < Base.size();) {
    size_t Eol = Base.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Base.size();
    Lines.push_back(Base.substr(Pos, Eol - Pos));
    Pos = Eol + 1;
  }

  // Marker declarations fix the pools and their localities.
  for (const std::string &L : Lines) {
    bool Ext = false;
    std::string Body = stripExternal(L, &Ext);
    size_t N = 0;
    if (matches(Body, "trait Tr%zu;%n", N))
      growTo(TraitExt, N, Ext);
    else if (matches(Body, "struct S%zu;%n", N))
      growTo(StructExt, N, Ext);
  }
  if (TraitExt.empty() || StructExt.empty())
    throw std::runtime_error("edit stream: no marker traits or structs");
  Needed.assign(TraitExt.size() * StructExt.size(), false);
  Present.assign(Needed.size(), false);

  // Conditional impls map (trait, generic) to the bound trait a goal on
  // G<S> then needs S to implement.
  std::vector<std::pair<size_t, size_t>> CondKeys; // (trait, generic)
  std::vector<size_t> CondBounds;
  for (const std::string &L : Lines) {
    std::string Body = stripExternal(L);
    size_t J = 0, K = 0, Y = 0;
    if (matches(Body, "impl Tr%zu for S%zu;%n", J, K) &&
        J < TraitExt.size() && K < StructExt.size())
      Present[J * StructExt.size() + K] = true;
    else if (matches(Body, "impl<T> Tr%zu for G%zu<T> where T: Tr%zu;%n", J,
                     K, Y))
      CondKeys.emplace_back(J, K), CondBounds.push_back(Y);
  }
  for (const std::string &L : Lines) {
    size_t J = 0, K = 0, G = 0;
    if (matches(L, "goal S%zu: Tr%zu;%n", K, J)) {
      if (J < TraitExt.size() && K < StructExt.size())
        Needed[J * StructExt.size() + K] = true;
    } else if (matches(L, "goal G%zu<S%zu>: Tr%zu;%n", G, K, J)) {
      for (size_t I = 0; I != CondKeys.size(); ++I)
        if (CondKeys[I] == std::make_pair(J, G) &&
            CondBounds[I] < TraitExt.size() && K < StructExt.size())
          Needed[CondBounds[I] * StructExt.size() + K] = true;
    }
  }
}

bool EditStream::parseFiller(size_t I, Line &Out) const {
  return matches(Lines[I], "impl Tr%zu for S%zu;%n", Out.Trait, Out.Struct) &&
         Out.Trait < TraitExt.size() && Out.Struct < StructExt.size();
}

bool EditStream::pairFree(size_t Trait, size_t Struct) const {
  // A local impl of an external trait for an external type would break
  // the orphan rule and add a coherence warning.
  return Trait < TraitExt.size() && Struct < StructExt.size() &&
         !Present[Trait * StructExt.size() + Struct] &&
         !(TraitExt[Trait] && StructExt[Struct]);
}

std::vector<size_t> EditStream::editable() const {
  std::vector<size_t> Out;
  for (size_t I = 0; I != Lines.size(); ++I) {
    Line L;
    if (parseFiller(I, L) && !Needed[L.Trait * StructExt.size() + L.Struct])
      Out.push_back(I);
  }
  return Out;
}

void EditStream::setPair(size_t I, size_t Trait, size_t Struct) {
  Line Old;
  parseFiller(I, Old);
  Present[Old.Trait * StructExt.size() + Old.Struct] = false;
  Present[Trait * StructExt.size() + Struct] = true;
  Lines[I] = "impl Tr" + std::to_string(Trait) + " for S" +
             std::to_string(Struct) + ";";
}

bool EditStream::retarget() {
  std::vector<size_t> Candidates = editable();
  for (int Attempt = 0; Attempt != 256 && !Candidates.empty(); ++Attempt) {
    size_t I = Candidates[Rng.below(Candidates.size())];
    Line L;
    parseFiller(I, L);
    bool OnTrait = Rng.below(2) == 0;
    size_t Old = OnTrait ? L.Trait : L.Struct;
    size_t Pool = OnTrait ? TraitExt.size() : StructExt.size();
    // Same digit count: no byte offset in the file moves.
    size_t D = digits(Old);
    size_t Lo = D == 1 ? 0 : powerOfTen(D - 1);
    size_t Hi = std::min(Pool, powerOfTen(D));
    size_t New = Lo + Rng.below(Hi - Lo);
    size_t Trait = OnTrait ? New : L.Trait;
    size_t Struct = OnTrait ? L.Struct : New;
    if (New == Old || !pairFree(Trait, Struct))
      continue;
    setPair(I, Trait, Struct);
    return true;
  }
  return false;
}

bool EditStream::add() {
  std::vector<size_t> After = editable();
  for (int Attempt = 0; Attempt != 256 && !After.empty(); ++Attempt) {
    size_t Trait = Rng.below(TraitExt.size());
    size_t Struct = Rng.below(StructExt.size());
    if (!pairFree(Trait, Struct))
      continue;
    size_t At = After[Rng.below(After.size())] + 1;
    Present[Trait * StructExt.size() + Struct] = true;
    Lines.insert(Lines.begin() + static_cast<std::ptrdiff_t>(At),
                 "impl Tr" + std::to_string(Trait) + " for S" +
                     std::to_string(Struct) + ";");
    AddedLength = Lines[At].size();
    return true;
  }
  return false;
}

bool EditStream::remove() {
  std::vector<size_t> Candidates = editable();
  for (int Attempt = 0; Attempt != 256 && !Candidates.empty(); ++Attempt) {
    size_t I = Candidates[Rng.below(Candidates.size())];
    // A line as long as the block's added one would put every later byte
    // back where it was two revisions ago.
    if (Lines[I].size() == AddedLength)
      continue;
    Line L;
    parseFiller(I, L);
    Present[L.Trait * StructExt.size() + L.Struct] = false;
    Lines.erase(Lines.begin() + static_cast<std::ptrdiff_t>(I));
    return true;
  }
  return false;
}

bool EditStream::lengthen() {
  std::vector<size_t> Candidates = editable();
  if (Candidates.empty())
    return false;
  // A commented line no longer parses as an editable filler line, so each
  // line grows once.
  Lines[Candidates[Rng.below(Candidates.size())]] += LengthenSuffix;
  return true;
}

EditKind EditStream::next() {
  EditKind K = static_cast<EditKind>(Next);
  Next = (Next + 1) % NumEditKinds;
  bool Done = false;
  switch (K) {
  case EditKind::Add:
    Done = add();
    break;
  case EditKind::Remove:
    Done = remove();
    break;
  case EditKind::Lengthen:
    Done = lengthen();
    break;
  case EditKind::Retarget:
    Done = retarget();
    break;
  }
  if (!Done)
    throw std::runtime_error(std::string("edit stream: no room for a ") +
                             editKindName(K) + " edit");
  return K;
}

std::string EditStream::source() const {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

} // namespace perfbench

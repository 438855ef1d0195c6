//===- perfbench/src/Trace.cpp --------------------------------*- C++ -*-===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <malloc.h>
#include <map>
#include <sched.h>
#include <vector>

namespace perfbench {

namespace {

double clockSeconds(clockid_t Clock) {
  timespec Ts;
  clock_gettime(Clock, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

} // namespace

double wallNow() { return clockSeconds(CLOCK_MONOTONIC); }
double processCpuNow() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuNow() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }

int64_t liveHeapBytes() {
  struct mallinfo2 Info = mallinfo2();
  return static_cast<int64_t>(Info.uordblks + Info.hblkhd);
}

namespace {

/// The number after "<Key>:" in /proc/self/status, or -1.
long procStatus(const char *Key) {
  FILE *Status = std::fopen("/proc/self/status", "r");
  if (!Status)
    return -1;
  char Line[256];
  long Value = -1;
  size_t KeyLen = std::strlen(Key);
  while (std::fgets(Line, sizeof(Line), Status))
    if (std::strncmp(Line, Key, KeyLen) == 0 && Line[KeyLen] == ':')
      Value = std::atol(Line + KeyLen + 1);
  std::fclose(Status);
  return Value;
}

} // namespace

// VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
// of the forked launcher from before exec (a Python parent adds ~10 MiB).
double peakRssMiB() { return static_cast<double>(procStatus("VmHWM")) / 1024.0; }

int threadCount() { return static_cast<int>(procStatus("Threads")); }

namespace {

bool pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return sched_setaffinity(0, sizeof(Set), &Set) == 0;
}

/// ~0.2 ms on an uncontended vCPU of the reference host. Returns a value
/// the caller keeps, so none of the work is optimised away.
uint64_t probeWork() {
  uint64_t X = 0x9E3779B97F4A7C15ull, Sum = 0;
  std::map<uint64_t, uint64_t> Map;
  std::vector<std::string> Lines;
  for (uint64_t I = 0; I != 400; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Map[X >> 44] += I;
    Lines.push_back("impl Tr" + std::to_string(I) + " for S" +
                    std::to_string((X >> 20) % 1000) + ";");
  }
  std::sort(Lines.begin(), Lines.end());
  for (const std::string &L : Lines) {
    auto It = Map.find(L.size());
    if (It != Map.end())
      Sum += It->second;
  }
  return Sum + Lines.front().size();
}

uint64_t ProbeSink = 0;

} // namespace

CpuPick pinQuietestCpu() {
  static const std::vector<int> Allowed = [] {
    std::vector<int> Cpus;
    cpu_set_t Set;
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
    return Cpus;
  }();
  CpuPick Best;
  for (int C : Allowed) {
    if (!pinTo(C))
      return CpuPick();
    for (int Rep = 0; Rep != 2; ++Rep) {
      double T0 = wallNow();
      ProbeSink += probeWork();
      double Seconds = wallNow() - T0;
      if (Best.Cpu < 0 || Seconds < Best.ProbeSeconds)
        Best = {C, Seconds};
    }
  }
  if (Best.Cpu >= 0 && !pinTo(Best.Cpu))
    return CpuPick();
  return Best;
}

Tracer::Tracer() { Spans.reserve(1 << 16); }

int32_t Tracer::begin(std::string Name, uint64_t Op, bool Heap) {
  double OuterStart = wallNow();
  int32_t Id = static_cast<int32_t>(Spans.size());
  // Every allocation the recorder makes happens before the first heap
  // read, so none of it lands in the span's heap delta.
  Spans.emplace_back();
  Span &S = Spans.back();
  S.OuterStart = OuterStart;
  S.Name = std::move(Name);
  S.Op = Op;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Heap = Heap;
  Open.push_back(Id);
  if (Heap)
    S.HeapDelta = -liveHeapBytes();
  S.Start = wallNow();
  return Id;
}

void Tracer::end(int32_t Id) {
  double End = wallNow();
  Span &S = Spans[static_cast<size_t>(Id)];
  S.End = End;
  if (S.Heap)
    S.HeapDelta += liveHeapBytes();
  S.OuterEnd = wallNow();
  Open.pop_back();
  if (S.Parent >= 0)
    Spans[static_cast<size_t>(S.Parent)].ChildSeconds +=
        S.OuterEnd - S.OuterStart;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", Out);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"id\":%zu,\"parent\":%d,\"self_us\":%.3f",
                 I ? ",\n" : "", S.Name.c_str(),
                 S.Name.substr(0, S.Name.find('.')).c_str(),
                 (S.Start - Epoch) * 1e6, S.seconds() * 1e6,
                 static_cast<unsigned long long>(S.Op), I, S.Parent,
                 S.selfSeconds() * 1e6);
    if (S.Heap)
      std::fprintf(Out, ",\"heap_delta_bytes\":%lld",
                   static_cast<long long>(S.HeapDelta));
    std::fputs("}}", Out);
  }
  std::fputs("\n]}\n", Out);
  return std::fclose(Out) == 0;
}

} // namespace perfbench

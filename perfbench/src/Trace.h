//===- perfbench/src/Trace.h - Clocks, heap probe and spans ---*- C++ -*-===//
//
// Part of argus-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's measuring instruments: wall and CPU clocks, the live
/// malloc heap (mallinfo2), and an in-memory span recorder written out as
/// Chrome trace-event JSON (opens in Perfetto and chrome://tracing).
///
/// A span has an inner interval, the timed call, and an outer interval
/// that also covers its heap probes. A parent's self time is its inner
/// duration minus its children's outer durations, so probing a child's
/// heap is charged to nobody's layer time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on CLOCK_MONOTONIC.
double wallNow();
/// CPU seconds of the whole process (every thread).
double processCpuNow();
/// CPU seconds of the calling thread.
double threadCpuNow();
/// All three clocks at one instant; differences of stamps time a region.
struct Stamp {
  double Wall = 0, Cpu = 0, Thread = 0;
  static Stamp now() { return {wallNow(), processCpuNow(), threadCpuNow()}; }
  Stamp operator-(const Stamp &O) const {
    return {Wall - O.Wall, Cpu - O.Cpu, Thread - O.Thread};
  }
  Stamp operator+(const Stamp &O) const {
    return {Wall + O.Wall, Cpu + O.Cpu, Thread + O.Thread};
  }
};

/// Live malloc bytes: in-use arena bytes plus mmapped chunks.
int64_t liveHeapBytes();
/// Peak resident set of this process, in MiB.
double peakRssMiB();
/// Threads currently in this process (from /proc/self/status).
int threadCount();

/// The vCPU pinQuietestCpu chose, and how long the probe took there.
struct CpuPick {
  int Cpu = -1;
  double ProbeSeconds = 0;
};
/// Runs a short fixed probe (map inserts and lookups, string formatting,
/// a sort: the kind of work the program does) twice on each vCPU the
/// process was first allowed to use, and pins the calling thread to the
/// vCPU where it ran fastest. On a shared host each vCPU flips between
/// an uncontended speed and one ~1.5x slower within fractions of a
/// second, independently of the others, so the quietest vCPU right now
/// is the best place for the next op. Returns Cpu -1 when the affinity
/// cannot be read or set.
CpuPick pinQuietestCpu();

struct Span {
  std::string Name;
  uint64_t Op = 0;
  int32_t Parent = -1;
  double Start = 0, End = 0;           ///< Inner interval, seconds.
  double OuterStart = 0, OuterEnd = 0; ///< Including heap probes.
  bool Heap = false;
  int64_t HeapDelta = 0; ///< Live heap after minus before, when Heap.
  double ChildSeconds = 0; ///< Sum of the children's outer durations.

  double seconds() const { return End - Start; }
  double selfSeconds() const { return seconds() - ChildSeconds; }
};

class Tracer {
public:
  Tracer();

  /// Opens a span under the innermost open one. With \p Heap the live
  /// heap is read before and after the call, outside the inner interval.
  int32_t begin(std::string Name, uint64_t Op, bool Heap = false);
  void end(int32_t Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as a Chrome trace-event "X" event; returns false
  /// on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  double Epoch = wallNow();
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, uint64_t Op, bool Heap = false)
      : T(T), Id(T ? T->begin(Name, Op, Heap) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  int32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

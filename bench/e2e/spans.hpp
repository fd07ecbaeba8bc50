// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer of the program under test: a name of the
// form "<layer>.<call>" (e.g. "graph.generate", "grade10.issues"), start and
// end on the steady clock, the enclosing span, and the operation it belongs
// to. Spans stay in memory and are written out once, when the run ends.
// Self time (duration minus the durations of direct children) summed by
// layer prefix tells where an operation's time went.
//
// A disabled recorder costs one branch per span, so the untraced run keeps
// the same call structure without the bookkeeping.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace g10::e2e {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the recorder's origin
  double end_s = 0.0;
  int parent = -1;       ///< index into the recorder's spans, -1 = root
  int op = 0;            ///< operation id

  double seconds() const { return end_s - start_s; }
  /// The part of the name before the first '.'.
  std::string_view layer() const;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }
  /// Operation id stamped on spans opened from now on.
  void set_op(int op) { op_ = op; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int begin(std::string_view name);
  void end(int index);

  /// Drops every recorded span (a forked operation calls this so it ships
  /// only its own spans back). The clock origin is kept, and the steady
  /// clock is shared across fork, so shipped spans line up.
  void clear();
  /// Appends spans recorded elsewhere (by a forked operation), re-basing
  /// their parent indices onto this recorder.
  void append(const std::vector<Span>& spans);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over the spans of operation `op`.
  std::map<std::string, double> self_seconds(int op) const;

  /// Writes one JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = 0;
};

/// RAII span. seconds() is measured even when the recorder is disabled, so
/// an operation's own timing never depends on tracing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name)
      : recorder_(recorder),
        index_(recorder.begin(name)),
        start_(Clock::now()) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double seconds() const { return seconds_between(start_, Clock::now()); }

 private:
  SpanRecorder& recorder_;
  int index_;
  Clock::time_point start_;
};

}  // namespace g10::e2e

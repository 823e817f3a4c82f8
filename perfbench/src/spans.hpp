// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer of the simulator (parse, each case, report emission and
// compare, each direct driver).  Each span names its layer and its parent,
// so a layer's self time is its spans' durations minus the part their child
// spans cover; the root span's self time is the unattributed remainder.
// Timestamps are CLOCK_MONOTONIC seconds, which a forked case process shares
// with the parent, so spans a case process sends back nest under the
// parent's unit span unchanged.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

namespace util = pcs::util;

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index into the recorder's spans; -1 = root
  bool aggregate = false;  ///< a summed section time, not a real interval
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Open a span now; returns its id (-1 when disabled).
  int open(std::string name, std::string layer, int parent);
  void close(int id);
  /// Record a finished span (or an aggregate section laid out from `start`).
  int add(Span span);

  /// Append spans recorded in a case process: their roots attach to
  /// `parent`, their internal parent links are re-based.
  void adopt(const util::Json& child_spans, int parent);

  /// Self time per layer over the subtree rooted at `root`.  The sum over
  /// layers equals the root's duration by construction; the attribution is
  /// sound only when nesting_violations() is empty.
  [[nodiscard]] std::map<std::string, double> layer_self_times(int root) const;

  /// Spans in the subtree rooted at `root` that break the nesting the self
  /// times rely on: a child that starts before or ends after its parent,
  /// or a span whose children together outlast it (negative self time,
  /// e.g. aggregate engine sections longer than their case).  `eps` is the
  /// tolerance in seconds.
  [[nodiscard]] std::vector<std::string> nesting_violations(int root, double eps) const;

  /// Wire form for a case process to send its spans back.
  [[nodiscard]] util::Json to_json() const;

  /// Chrome trace-event document (the format `pcs_cli --trace-viz` writes),
  /// with `metadata` attached for self-description.
  [[nodiscard]] util::Json chrome_trace(const util::Json& metadata) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::string layer, int parent)
      : rec_(rec), id_(rec.open(std::move(name), std::move(layer), parent)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench

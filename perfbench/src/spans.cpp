#include "spans.hpp"

namespace perfbench {

int SpanRecorder::open(std::string name, std::string layer, int parent) {
  if (!enabled_) return -1;
  const double t = now_s();
  return add({std::move(name), std::move(layer), t, t, parent, false});
}

void SpanRecorder::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
}

int SpanRecorder::add(Span span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::adopt(const util::Json& child_spans, int parent) {
  if (!enabled_ || !child_spans.is_array()) return;
  const int base = static_cast<int>(spans_.size());
  for (const util::Json& s : child_spans.as_array()) {
    const int local_parent = static_cast<int>(s.at("parent").as_number());
    spans_.push_back({s.at("name").as_string(), s.at("layer").as_string(),
                      s.at("start").as_number(), s.at("end").as_number(),
                      local_parent < 0 ? parent : base + local_parent,
                      s.at("aggregate").as_bool()});
  }
}

std::map<std::string, double> SpanRecorder::layer_self_times(int root) const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  std::vector<bool> in_tree(spans_.size(), false);
  // Parents always precede their children, so one forward pass marks the
  // subtree and a second charges each span's duration to its parent.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    in_tree[i] = static_cast<int>(i) == root || (p >= 0 && in_tree[static_cast<std::size_t>(p)]);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!in_tree[i] || static_cast<int>(i) == root) continue;
    child_cover[static_cast<std::size_t>(spans_[i].parent)] += spans_[i].end - spans_[i].start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!in_tree[i]) continue;
    self[spans_[i].layer] += (spans_[i].end - spans_[i].start) - child_cover[i];
  }
  return self;
}

std::vector<std::string> SpanRecorder::nesting_violations(int root, double eps) const {
  std::vector<std::string> out;
  std::vector<double> child_cover(spans_.size(), 0.0);
  std::vector<bool> in_tree(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    in_tree[i] = static_cast<int>(i) == root ||
                 (s.parent >= 0 && in_tree[static_cast<std::size_t>(s.parent)]);
    if (!in_tree[i]) continue;
    if (s.end < s.start - eps) out.push_back(s.name + ": ends before it starts");
    if (static_cast<int>(i) == root) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start < p.start - eps || s.end > p.end + eps) {
      out.push_back(s.name + ": lies outside its parent " + p.name);
    }
    child_cover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (in_tree[i] && child_cover[i] > spans_[i].end - spans_[i].start + eps) {
      out.push_back(spans_[i].name + ": children outlast it (negative self time)");
    }
  }
  return out;
}

util::Json SpanRecorder::to_json() const {
  util::Json out(util::JsonArray{});
  for (const Span& s : spans_) {
    util::Json j(util::JsonObject{});
    j.set("name", s.name);
    j.set("layer", s.layer);
    j.set("start", s.start);
    j.set("end", s.end);
    j.set("parent", s.parent);
    j.set("aggregate", s.aggregate);
    out.push_back(std::move(j));
  }
  return out;
}

util::Json SpanRecorder::chrome_trace(const util::Json& metadata) const {
  constexpr double kMicros = 1e6;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  util::Json events(util::JsonArray{});
  for (const Span& s : spans_) {
    util::Json e(util::JsonObject{});
    e.set("ph", "X");
    e.set("name", s.name);
    e.set("cat", s.layer);
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("ts", (s.start - t0) * kMicros);
    e.set("dur", (s.end - s.start) * kMicros);
    if (s.aggregate) {
      util::Json args(util::JsonObject{});
      args.set("aggregate", true);
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  util::Json doc(util::JsonObject{});
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("metadata", metadata);
  return doc;
}

}  // namespace perfbench

#include "spans.hpp"

#include <fstream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace g10::e2e {

std::string_view Span::layer() const {
  const std::string_view view(name);
  return view.substr(0, view.find('.'));
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

int SpanRecorder::begin(std::string_view name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.start_s = seconds_between(origin_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  G10_CHECK_MSG(!open_.empty() && open_.back() == index,
                "spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_s =
      seconds_between(origin_, Clock::now());
}

void SpanRecorder::clear() {
  G10_CHECK_MSG(open_.empty(), "cannot clear with open spans");
  spans_.clear();
}

void SpanRecorder::append(const std::vector<Span>& spans) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : spans) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> SpanRecorder::self_seconds(int op) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op != op) continue;
    self[i] += spans_[i].seconds();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds();
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op != op) continue;
    by_layer[std::string(spans_[i].layer())] += self[i];
  }
  return by_layer;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  for (const Span& span : spans_) {
    JsonWriter writer(out);
    writer.begin_object()
        .key("name").value(span.name)
        .key("op").value(span.op)
        .key("parent").value(span.parent)
        .key("start_s").value(span.start_s)
        .key("end_s").value(span.end_s)
        .end_object();
    out << '\n';
  }
}

}  // namespace g10::e2e

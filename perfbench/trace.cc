#include "perfbench/trace.h"

#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace cpr::perfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  Span span;
  span.name = std::string(name);
  span.start_seconds = tracer_->Now();
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = tracer_->request_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->spans_[static_cast<size_t>(index_)].end_seconds = tracer_->Now();
  tracer_->open_.pop_back();
}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

double Tracer::TotalSeconds(std::string_view name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += span.end_seconds - span.start_seconds;
    }
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    char times[96];
    std::snprintf(times, sizeof(times), "\"start\": %.9f, \"end\": %.9f", span.start_seconds,
                  span.end_seconds);
    out << "{\"name\": \"" << obs::JsonEscape(span.name) << "\", " << times
        << ", \"parent\": " << span.parent << ", \"request\": " << span.request << "}\n";
  }
  return static_cast<bool>(out.flush());
}

}  // namespace cpr::perfbench

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void ExactCounts::check(const std::string& name, double v) {
  auto [it, fresh] = entries_.try_emplace(name);
  Entry& e = it->second;
  if (fresh) {
    e.ref = v;
  } else if (std::memcmp(&e.ref, &v, sizeof v) != 0) {
    ++e.mismatches;
  }
  ++e.seen;
}

void ExactCounts::report(Report& r) const {
  for (const auto& [name, e] : entries_) {
    std::printf("exact %-44s %-22.17g reps %-4lld%s\n", name.c_str(), e.ref,
                static_cast<long long>(e.seen),
                e.mismatches ? " DRIFT" : "");
    if (e.mismatches) {
      r.problem("determinism: " + name + " differs in " +
                std::to_string(e.mismatches) + " of " +
                std::to_string(e.seen) + " repetitions");
    }
  }
  for (const auto& [name, total] : seeded_) {
    std::printf("seeded %-43s %.17g\n", name.c_str(), total);
  }
}

Tracer::Span::Span(Tracer& t, const char* name, int64_t request)
    : t_(t), name_(name), request_(request) {
  if (t_.recording()) {
    SpanRecord s;
    s.name = name_;
    s.id = static_cast<int>(t_.spans_.size());
    s.parent = t_.open_.empty() ? -1 : t_.open_.back();
    s.request = request_;
    slot_ = s.id;
    t_.spans_.push_back(s);
    t_.open_.push_back(slot_);
  }
  start_ = Clock::now();
}

double Tracer::Span::stop() {
  if (ms_ >= 0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = ms_between(start_, end);
  if (slot_ >= 0) {
    SpanRecord& s = t_.spans_[static_cast<size_t>(slot_)];
    s.start_ns = t_.ns_since_epoch(start_);
    s.end_ns = t_.ns_since_epoch(end);
    t_.open_.pop_back();
  }
  return ms_;
}

namespace {

std::vector<int64_t> child_ns(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> covered(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  return covered;
}

} // namespace

std::map<std::string, double> Tracer::self_ms() const {
  const std::vector<int64_t> covered = child_ns(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        (spans_[i].end_ns - spans_[i].start_ns - covered[i]) * 1e-6;
  }
  return out;
}

double Tracer::min_request_coverage() const {
  const std::vector<int64_t> covered = child_ns(spans_);
  double worst = 1.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (std::strcmp(s.name, "request") != 0 || s.end_ns <= s.start_ns) continue;
    worst = std::min(worst, static_cast<double>(covered[i]) /
                                static_cast<double>(s.end_ns - s.start_ns));
  }
  return worst;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                 "\"request\":%lld}}\n",
                 i ? "," : "", s.name, s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // Ten samples lie strictly above sorted index n - 11. With 20 samples or
  // fewer that index is at or below the median, so report the maximum.
  if (n <= 20) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

} // namespace perfbench

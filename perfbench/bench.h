// Shared pieces of the benchmark binary: run options, the metric report, the
// exact-count determinism check and the span tracer.
#pragma once

// tfhe/tgsw.h calls assert() without including <cassert>, so it does not
// compile on its own. Every benchmark source includes this header before any
// matcha header, which puts <cassert> first.
#include <cassert>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;       ///< executor workers: the CPUs this process may use
  std::string trace_out; ///< Chrome trace-event file written by traced runs
};

/// Everything one run reports. run.py keeps the end-to-end
/// metrics of an untraced run and the per-layer metrics of a traced run.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> end_to_end, per_layer;
  int64_t attempted = 0; ///< circuits (software) or requests (simulator)
  int64_t failed = 0;    ///< of those, the ones with a wrong or missing result
  std::vector<std::string> problems; ///< any entry makes the run incorrect

  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
  void problem(const std::string& what) { problems.push_back(what); }
};

/// Exact counts and simulated statistics must repeat bit for bit across the
/// repetitions of one run (requests, set-ups). The first value seen under a
/// name is the reference; any later difference is a problem in the report.
/// Counts that depend on the ciphertexts are summed instead: they repeat
/// exactly only for the same seed, so two commits compare them across runs.
class ExactCounts {
 public:
  void check(const std::string& name, double v);
  void record(const std::string& name, double v) { seeded_[name] += v; }
  /// Print every reference value with the number of repetitions compared and
  /// the seeded totals; report each drifting value as a problem.
  void report(Report& r) const;

 private:
  struct Entry {
    double ref = 0;
    int64_t seen = 0;
    int64_t mismatches = 0;
  };
  std::map<std::string, Entry> entries_;
  std::map<std::string, double> seeded_;
};

/// One recorded span: a timed call with its parent span and request id.
struct SpanRecord {
  const char* name = "";
  int id = 0;
  int parent = -1;       ///< enclosing span id, -1 at top level
  int64_t request = -1;  ///< request id; -1 for set-up and replays
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
};

/// Benchmark-side tracing: spans around calls into the library, kept in
/// memory and written once at the end. Single-threaded (the benchmark calls
/// the library from one thread). A Span always measures its own duration;
/// it is stored only while recording is on.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  /// Whether new spans are stored (traced runs alternate requests).
  void set_recording(bool r) { recording_ = r; }
  bool recording() const { return on_ && recording_; }

  class Span {
   public:
    Span(Tracer& t, const char* name, int64_t request = -1);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Close the span (idempotent) and return its duration in ms.
    double stop();

   private:
    Tracer& t_;
    const char* name_;
    int64_t request_;
    int slot_ = -1; ///< index into spans_ when stored
    Clock::time_point start_;
    double ms_ = -1;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Self time per span name in ms: duration minus the child spans inside it.
  std::map<std::string, double> self_ms() const;
  /// Smallest share of a request span that its child spans cover.
  double min_request_coverage() const;
  /// Write the spans as Chrome trace-event JSON. False on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool on_;
  bool recording_ = true;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_; ///< stack of open stored span ids
};

double median(std::vector<double> v);
/// The highest percentile with at least ten samples above it, and that
/// percentile; the maximum (percentile 100) when that percentile would not
/// lie above the median, i.e. with 20 samples or fewer.
std::pair<double, double> tail(std::vector<double> v);
double percentile(std::vector<double> v, double p);

void run_interactive(const Options& o, Tracer& tr, Report& r);
void run_batch8(const Options& o, Tracer& tr, Report& r);
void run_sim(const Options& o, Tracer& tr, Report& r);

} // namespace perfbench

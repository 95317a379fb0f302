// Shared pieces of the Pelican benchmark binary: options, the named-metric
// report, run outcome, progress reporting for the watchdog, and small
// statistics helpers. One workload per run; run.py documents the command
// line and the output.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: instrumentation on, per-layer metrics, waterfall.
  bool trace = false;
  /// Small sizes for the self-test (256 users, fewer windows).
  bool small = false;
  /// Self-test fault: corrupt one reference ("flip_id", "stale_version",
  /// "serial_score") or the top-3 leakage of later time-based passes
  /// ("leak"), so the matching check fails; empty = none.
  std::string perturb;
  /// Scratch directory for stores and caches (removed by the caller).
  std::filesystem::path work_dir;
  /// Where the traced run writes its spans (one JSON object per line).
  std::filesystem::path spans_out;
  /// Engine launcher binary (perfbench_engined).
  std::string engined;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every number a run measured, by name, with its unit, in the order set;
/// each name is set once.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// Counts every request (or attack window) attempted and failed; the
/// progress thread in main.cpp publishes them for the watchdog.
struct Counters {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
};
Counters& counters();

struct Outcome {
  Report report;
  /// Correctness checks that failed; any entry fails the run.
  std::vector<std::string> failures;
  /// Human-readable lines (metric table, waterfall) printed before the result.
  std::vector<std::string> text;
};

Outcome run_fleet(const Options& options);
Outcome run_audit(const Options& options);

// -- helpers ------------------------------------------------------------------

/// Inclusive linear-interpolation percentile (q in [0, 100]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// A "Vm*" field of /proc/<pid>/status in MiB (0 when unreadable).
[[nodiscard]] double proc_status_mb(pid_t pid, const char* field);
/// Seconds on the steady clock since an arbitrary process-wide origin.
[[nodiscard]] double now_s();
/// "name value unit" table line.
[[nodiscard]] std::string metric_line(const std::string& name, double value,
                                      const std::string& unit);
/// Appends the table lines of the named metrics, in the order given.
void append_metric_lines(Outcome& outcome,
                         std::initializer_list<const char*> names);

}  // namespace perfbench

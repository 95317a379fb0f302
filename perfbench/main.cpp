// pelican_perfbench: runs one benchmark workload against the real Pelican
// stack and prints its metrics. Normally driven by run.py, which builds it,
// enforces the wall-clock budget, and selects the metrics to report.
//
//   pelican_perfbench --workload fleet_uniform|fleet_hot_publish|privacy_audit
//                     --seed N --seconds S --trace 0|1 --work-dir DIR
//                     [--small]
//                     [--perturb flip_id|stale_version|serial_score|leak]
//
// The last stdout line is "PERFBENCH_RESULT {json}" with every metric the run
// measured; earlier lines are the human-readable report. The exit code is 0
// when every correctness check passed, 1 when one failed, 2 on an error.
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stop_token>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace {

int usage() {
  std::cerr << "usage: pelican_perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 --work-dir DIR [--small] [--perturb KIND]\n";
  return 2;
}

/// Rewrites "<attempted> <failed>" into the progress file every 200 ms, so
/// a watchdog that kills this process can still report partial counts.
void publish_progress(const std::stop_token& stop,
                      const std::filesystem::path& path) {
  const auto tmp = path.string() + ".tmp";
  while (!stop.stop_requested()) {
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << perfbench::counters().attempted.load() << " "
          << perfbench::counters().failed.load() << "\n";
    }
    std::filesystem::rename(tmp, path);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

std::string result_json(const perfbench::Outcome& outcome) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (outcome.failures.empty() ? "true" : "false")
       << ", \"attempted\": " << perfbench::counters().attempted.load()
       << ", \"failed\": " << perfbench::counters().failed.load()
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : outcome.report.metrics()) {
    json << (first ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << metric.value << ", \"unit\": \""
         << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  return json.str();
}

}  // namespace

/// Confines this process, and everything it later starts, to one CPU: the
/// highest-numbered one it may use (the lowest ones usually take the
/// device interrupts). Used by the fleet workloads only: on a small VM a
/// router thread waking an engine thread on an idle CPU pays a hypervisor
/// wake-up whose cost varies several-fold from run to run with the load of
/// the host; on one CPU, hand-offs are plain context switches and the
/// figures measure the stack's own work. The audit keeps every CPU, so its
/// pool-parallel attack and kernel work scale as they would in use.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  if (chosen < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

int main(int argc, char** argv) {
  perfbench::Options options;
  options.engined = PERFBENCH_SHIM_PATH;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      options.small = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else if (flag == "--perturb") {
        options.perturb = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    return usage();
  }
  const bool fleet = options.workload == "fleet_uniform" ||
                     options.workload == "fleet_hot_publish";
  // Before any thread exists, so every thread and engine inherits it.
  if (fleet && !pin_to_one_cpu()) {
    std::cerr << "pelican_perfbench: cannot pin to one CPU\n";
    return 2;
  }

  // Die with the launcher (run.py), and let engine launchers verify that
  // this process is still their parent.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ::setenv("PERFBENCH_PARENT_PID", std::to_string(::getpid()).c_str(), 1);

  std::filesystem::create_directories(options.work_dir);
  std::jthread progress(publish_progress, options.work_dir / "progress");

  perfbench::Outcome outcome;
  try {
    if (fleet) {
      outcome = perfbench::run_fleet(options);
    } else if (options.workload == "privacy_audit") {
      outcome = perfbench::run_audit(options);
    } else {
      std::cerr << "unknown workload '" << options.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "pelican_perfbench: " << error.what() << "\n";
    return 2;
  }
  progress.request_stop();

  for (const auto& metric : outcome.report.metrics()) {
    if (!std::isfinite(metric.value)) {
      outcome.failures.push_back("metric " + metric.name + " is not finite");
    }
  }
  for (const auto& line : outcome.text) std::cout << line << "\n";
  for (const auto& failure : outcome.failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  std::cout << "PERFBENCH_RESULT " << result_json(outcome) << std::endl;
  return outcome.failures.empty() ? 0 : 1;
}

namespace perfbench {

Counters& counters() {
  static Counters instance;
  return instance;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double proc_status_mb(pid_t pid, const char* field) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

std::string metric_line(const std::string& name, double value,
                        const std::string& unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "  %-34s %14.4f %s", name.c_str(),
                value, unit.c_str());
  return buffer;
}

void append_metric_lines(Outcome& outcome,
                         std::initializer_list<const char*> names) {
  for (const char* name : names) {
    for (const auto& metric : outcome.report.metrics()) {
      if (metric.name == name) {
        outcome.text.push_back(
            metric_line(metric.name, metric.value, metric.unit));
      }
    }
  }
}

}  // namespace perfbench

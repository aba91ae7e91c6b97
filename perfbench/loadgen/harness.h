// Process, clock and statistics helpers of the benchmark's load generator.

#ifndef PERFBENCH_LOADGEN_HARNESS_H_
#define PERFBENCH_LOADGEN_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Quantile by linear interpolation between closest ranks (numpy's default).
/// Sorts `values`. 0 for an empty sample.
double Quantile(std::vector<double>& values, double q);

/// User + system CPU seconds of a whole process (every thread, live or
/// exited), from /proc/<pid>/stat. Clock-tick resolution.
double ProcessCpuSeconds(pid_t pid);

/// User + system CPU seconds of this process, from getrusage (microsecond
/// resolution).
double SelfCpuSeconds();

/// User + system CPU seconds of the calling thread.
double ThreadCpuSeconds();

/// CPU seconds the hypervisor ran other guests while this machine's
/// virtual CPUs were runnable (the steal column of /proc/stat), summed over
/// all CPUs. 0 where the kernel does not account steal.
double HostStealSeconds();

/// Online CPUs of this machine.
int HostCpus();

/// VmHWM (peak resident set) of a process in MiB, from /proc/<pid>/status.
double PeakRssMb(pid_t pid);

/// One gyo_serve child process. Spawned with its stdout on a pipe so the
/// "listening on HOST:PORT" line can be read; stderr is inherited. Start
/// from the main thread: the child is signalled when the spawning thread
/// exits.
/// Stop() sends SIGTERM (the daemon's graceful drain), waits, and escalates
/// to SIGKILL if the drain does not finish in time. The destructor stops a
/// daemon that is still running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary args...` and blocks until it prints its listening line.
  /// False + `error` when the binary cannot start or exits first.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);
  /// Drains and reaps the daemon; returns its final stdout line ("drained:
  /// ..."), or an empty string when it had to be killed.
  std::string Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string buffered_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_HARNESS_H_

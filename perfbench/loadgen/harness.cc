#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // After ')': field 3 is the state; utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

double RusageSeconds(int who) {
  rusage usage;
  getrusage(who, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

double SelfCpuSeconds() { return RusageSeconds(RUSAGE_SELF); }

double ThreadCpuSeconds() { return RusageSeconds(RUSAGE_THREAD); }

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // "cpu user nice system idle iowait irq softirq steal ...", in ticks.
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (unsigned long long& x : v) in >> x;
  if (!in || cpu != "cpu") return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int HostCpus() {
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& args, std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_ = fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec. The daemon gets SIGTERM if
    // the load generator dies first, so no daemon outlives a killed run.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    return false;
  }
  out_fd_ = fds[0];
  // Read until the listening line; EOF first means the daemon died.
  constexpr char kPrefix[] = "listening on ";
  while (true) {
    const size_t nl = buffered_.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      if (line.rfind(kPrefix, 0) == 0) {
        port_ = std::atoi(line.c_str() + line.rfind(':') + 1);
        return port_ > 0;
      }
      continue;
    }
    char buf[256];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n > 0) {
      buffered_.append(buf, static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      *error = "gyo_serve exited before listening";
      Stop();
      return false;
    }
  }
}

std::string Daemon::Stop() {
  if (pid_ < 0) return "";
  kill(pid_, SIGTERM);
  // Collect stdout until EOF (the daemon closes it on exit), bounded by a
  // drain deadline after which the daemon is killed.
  constexpr int kDrainMs = 10000;
  const int64_t deadline = NowNs() + int64_t{kDrainMs} * 1000000;
  bool killed = false;
  while (out_fd_ >= 0) {
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0 && !killed) {
      kill(pid_, SIGKILL);
      killed = true;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, left_ms > 0 ? static_cast<int>(left_ms) : 100) <= 0) {
      continue;
    }
    char buf[256];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n > 0) {
      buffered_.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  std::string last;
  std::istringstream lines(buffered_);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) last = line;
  }
  buffered_.clear();
  return killed ? "" : last;
}

}  // namespace perfbench

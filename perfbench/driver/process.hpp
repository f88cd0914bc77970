/// \file process.hpp
/// A spawned admission_server child and the scrape of its Prometheus
/// export (SIGUSR1 dump to its stderr log).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One Prometheus text export: sample name (with labels) -> value.
class Prom {
 public:
  Prom() = default;
  explicit Prom(const std::string& text);

  [[nodiscard]] double get(const std::string& name) const;
  /// Sample-wise after − before (counters and histogram series).
  [[nodiscard]] Prom minus(const Prom& before) const;

  [[nodiscard]] double hist_count(const std::string& h) const {
    return get("edfkit_" + h + "_count");
  }
  [[nodiscard]] double hist_sum(const std::string& h) const {
    return get("edfkit_" + h + "_sum");
  }
  /// Mean sample of histogram `h` (samples / count), 0 when empty.
  [[nodiscard]] double hist_mean(const std::string& h) const;
  /// Upper edge of the log2 bucket holding quantile q of histogram `h`
  /// (bucket resolution: a factor of two).
  [[nodiscard]] double hist_quantile(const std::string& h, double q) const;
  [[nodiscard]] double counter(const std::string& c) const {
    return get("edfkit_" + c);
  }

 private:
  std::map<std::string, double> v_;
};

/// A running admission_server. The destructor SIGKILLs and reaps it if
/// it is still alive, so no exit path leaves a child behind.
class ServerProcess {
 public:
  /// Spawn `bin args...` with stdout/stderr going to `log_prefix`.out /
  /// .err, and wait (up to 30 s) for its "listening on" line.
  ServerProcess(const std::string& bin, const std::vector<std::string>& args,
                const std::string& log_prefix);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// SIGUSR1, then wait for the dump to land in the stderr log.
  [[nodiscard]] Prom scrape();

  /// SIGTERM drain; returns the exit status (or -1 on timeout, after
  /// which the child is killed). The stdout log is then complete.
  int terminate(int timeout_ms);
  /// SIGKILL + reap.
  void kill_now() noexcept;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string out_path_;
  std::string err_path_;
};

}  // namespace perfbench

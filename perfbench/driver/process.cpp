#include "process.hpp"

#include <signal.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string read_file(const std::string& path, std::size_t from = 0) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  in.seekg(static_cast<std::streamoff>(from));
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                        : 0;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

// ------------------------------------------------------------------ Prom

Prom::Prom(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    try {
      v_[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    } catch (const std::exception&) {
      // Not a sample line (e.g. a stray log line); skip it.
    }
  }
}

double Prom::get(const std::string& name) const {
  const auto it = v_.find(name);
  return it == v_.end() ? 0.0 : it->second;
}

Prom Prom::minus(const Prom& before) const {
  Prom d;
  for (const auto& [k, v] : v_) d.v_[k] = v - before.get(k);
  return d;
}

double Prom::hist_mean(const std::string& h) const {
  return ratio(hist_sum(h), hist_count(h));
}

double Prom::hist_quantile(const std::string& h, double q) const {
  const std::string prefix = "edfkit_" + h + "_bucket{le=\"";
  std::vector<std::pair<double, double>> edges;  // (le, cumulative)
  for (auto it = v_.lower_bound(prefix);
       it != v_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string le = it->first.substr(
        prefix.size(), it->first.size() - prefix.size() - 2);
    edges.push_back({le == "+Inf" ? std::numeric_limits<double>::infinity()
                                  : std::stod(le),
                     it->second});
  }
  std::sort(edges.begin(), edges.end());
  const double count = hist_count(h);
  if (count <= 0.0) return 0.0;
  for (const auto& [le, cum] : edges) {
    if (cum >= q * count) return le + 1.0;
  }
  return 0.0;
}

// --------------------------------------------------------- ServerProcess

ServerProcess::ServerProcess(const std::string& bin,
                             const std::vector<std::string>& args,
                             const std::string& log_prefix)
    : out_path_(log_prefix + ".out"), err_path_(log_prefix + ".err") {
  std::vector<std::string> argv_s{bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null", O_RDONLY,
                                   0);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, out_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int rc =
      posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + bin);
  }

  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    const std::string out = read_file(out_path_);
    const std::size_t at = out.find("listening on ");
    const std::size_t eol =
        at == std::string::npos ? std::string::npos : out.find('\n', at);
    if (eol != std::string::npos) {
      const std::string line = out.substr(at, eol - at);
      const std::size_t colon = line.find(':');
      port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited before listening: " +
                               read_file(err_path_));
    }
    if (Clock::now() > deadline) {
      kill_now();
      throw std::runtime_error("server did not start listening");
    }
    sleep_ms(1);
  }
}

ServerProcess::~ServerProcess() { kill_now(); }

void ServerProcess::kill_now() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

Prom ServerProcess::scrape() {
  const std::size_t before = file_size(err_path_);
  if (pid_ <= 0 || ::kill(pid_, SIGUSR1) != 0) {
    throw std::runtime_error("scrape: server is not running");
  }
  // The dump is one unbuffered write of the whole export; it is done
  // once the log has grown, ends in a newline, and stops growing.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  std::size_t last = before;
  int stable = 0;
  for (;;) {
    sleep_ms(1);
    const std::size_t now = file_size(err_path_);
    if (now > before && now == last) {
      const std::string tail = read_file(err_path_, now - 1);
      if (tail == "\n" && ++stable >= 3) break;
    } else {
      stable = 0;
    }
    last = now;
    if (Clock::now() > deadline) {
      throw std::runtime_error("scrape: no metrics dump within 30 s");
    }
  }
  const std::string text = read_file(err_path_, before);
  if (text.find("edfkit_net_requests_total") == std::string::npos) {
    throw std::runtime_error("scrape: incomplete metrics dump");
  }
  return Prom(text);
}

int ServerProcess::terminate(int timeout_ms) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (Clock::now() > deadline) {
      kill_now();
      return -1;
    }
    sleep_ms(2);
  }
}

double vm_hwm_mb(long pid) {
  const std::string status =
      read_file("/proc/" + (pid > 0 ? std::to_string(pid) : "self") +
                "/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::stod(status.substr(at + 6)) / 1024.0;  // kB -> MiB
}

}  // namespace perfbench

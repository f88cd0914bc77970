/// \file main.cpp
/// perfbench_driver: runs one benchmark workload and prints its result
/// as one JSON line (the last line of stdout). Built and invoked by
/// perfbench/run.py, which adds the host fingerprint and validates the
/// metric set against BENCHMARK.json.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                    --server PATH --workdir DIR --detail FILE
///
/// Exit codes: 0 = ran and every output checked correct; 1 = a
/// correctness mismatch (the JSON line then reads "correct": false);
/// 2 = the run could not be carried out.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "util/cli.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o;
}

void write_detail(const std::string& path, const perfbench::RunResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"valid\": %s, \"invalid_reason\": \"%s\", \"counters\": {",
               r.valid ? "true" : "false", json_escape(r.invalid_reason).c_str());
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", k.c_str(),
                 static_cast<unsigned long long>(v));
    first = false;
  }
  std::fprintf(f, "}, \"mismatches\": [");
  first = true;
  for (const std::string& m : r.mismatches) {
    std::fprintf(f, "%s\"%s\"", first ? "" : ", ", json_escape(m).c_str());
    first = false;
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string detail;
  try {
    const edfkit::CliFlags flags(argc, argv);
    cfg.workload = flags.get("workload", "");
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    cfg.seconds = flags.get_double("seconds", 10.0);
    cfg.trace = flags.get_int("trace", 0) != 0;
    cfg.server_bin = flags.get("server", "");
    cfg.workdir = flags.get("workdir", "");
    detail = flags.get("detail", "");
    if (cfg.workdir.empty() || !(cfg.seconds > 0.0)) {
      throw std::invalid_argument("--workdir and --seconds > 0 are required");
    }
    std::filesystem::create_directories(cfg.workdir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }

  perfbench::RunResult r;
  try {
    if (cfg.workload == "offline-exact") {
      perfbench::run_offline(cfg, r);
    } else if (cfg.workload.rfind("serve-", 0) == 0) {
      perfbench::run_serve(cfg, r);
    } else {
      throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }

  for (const std::string& m : r.mismatches) {
    std::fprintf(stderr, "MISMATCH: %s\n", m.c_str());
  }
  if (!r.valid) std::fprintf(stderr, "INVALID RUN: %s\n", r.invalid_reason.c_str());
  if (!detail.empty()) write_detail(detail, r);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

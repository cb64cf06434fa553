// Shared plumbing for the figure-reproduction benches.
//
// Every bench prints the rows/series of one figure from the paper's
// evaluation (§8). Scale knobs come from the environment so a quick CI run
// and a full reproduction use the same binaries:
//
//   CPR_BENCH_SCALE     subnet-count multiplier for the DC dataset
//                       (default 0.25; 1.0 reproduces ~1K-traffic-class
//                       medians like the paper)
//   CPR_BENCH_NETWORKS  how many of the 96 DC networks to run (default 96)
//   CPR_BENCH_TIMEOUT   per-problem solver timeout in seconds (default 10;
//                       the paper used 8 hours)
//   CPR_BENCH_THREADS   worker threads for per-dst solving (default 10,
//                       like the paper's parallel runs)
//   CPR_BENCH_JSON      where BenchJson writes its machine-readable record
//                       (default BENCH_<bench-name>.json in the working
//                       directory)

#ifndef CPR_BENCH_BENCH_UTIL_H_
#define CPR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/cpr.h"
#include "netbase/string_util.h"
#include "obs/json.h"

namespace cpr {

// Numeric knobs parse strictly: a malformed value stops the bench with a
// message naming the variable instead of silently running with 0.
inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value != nullptr && !ParseDouble(value, &fallback)) {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", name, value);
    std::exit(2);
  }
  return fallback;
}

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value != nullptr && !ParseInt(value, &fallback)) {
    std::fprintf(stderr, "%s: expected an integer, got '%s'\n", name, value);
    std::exit(2);
  }
  return fallback;
}

struct BenchConfig {
  double scale = EnvDouble("CPR_BENCH_SCALE", 0.25);
  int networks = EnvInt("CPR_BENCH_NETWORKS", 96);
  double timeout = EnvDouble("CPR_BENCH_TIMEOUT", 10.0);
  int threads = EnvInt("CPR_BENCH_THREADS", 10);
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * (static_cast<double>(values.size()) - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

inline const char* StatusName(RepairStatus status) {
  switch (status) {
    case RepairStatus::kSuccess:
      return "ok";
    case RepairStatus::kNoViolations:
      return "clean";
    case RepairStatus::kUnsat:
      return "UNSAT";
    case RepairStatus::kTimeout:
      return "TIMEOUT";
    case RepairStatus::kDeadlineExceeded:
      return "DEADLINE";
    case RepairStatus::kUnsupported:
      return "UNSUPPORTED";
    case RepairStatus::kPartial:
      return "PARTIAL";
    case RepairStatus::kError:
      return "ERROR";
    case RepairStatus::kLintRejected:
      return "LINT-REJECTED";
  }
  return "?";
}

// Machine-readable companion to a bench's printed table: one BENCH_*.json
// per run holding the bench name, the CPR_BENCH_* configuration, every row,
// and the summary values. Rows mirror the printed columns so plots never
// have to re-parse stdout.
//
//   cpr::BenchJson bench("fig07_realdc_time", config);
//   ...
//   cpr::BenchJson::Row& row = bench.AddRow();
//   row.Set("network", i).Set("perdst_seconds", perdst_time);
//   ...
//   bench.SetSummary("perdst_median_seconds", median);
//   bench.Write();  // BENCH_fig07_realdc_time.json (or $CPR_BENCH_JSON)
class BenchJson {
 public:
  using Value = std::variant<int64_t, double, std::string>;

  class Row {
   public:
    Row& Set(std::string key, int64_t value) { return Emplace(std::move(key), value); }
    Row& Set(std::string key, int value) {
      return Emplace(std::move(key), static_cast<int64_t>(value));
    }
    Row& Set(std::string key, size_t value) {
      return Emplace(std::move(key), static_cast<int64_t>(value));
    }
    Row& Set(std::string key, double value) { return Emplace(std::move(key), value); }
    Row& Set(std::string key, std::string value) {
      return Emplace(std::move(key), std::move(value));
    }
    Row& Set(std::string key, const char* value) {
      return Emplace(std::move(key), std::string(value));
    }

   private:
    friend class BenchJson;
    Row& Emplace(std::string key, Value value) {
      fields_.emplace_back(std::move(key), std::move(value));
      return *this;
    }
    std::vector<std::pair<std::string, Value>> fields_;
  };

  BenchJson(std::string name, const BenchConfig& config)
      : name_(std::move(name)), config_(config) {}

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  template <typename T>
  void SetSummary(std::string key, T value) {
    summary_.Set(std::move(key), value);
  }

  // $CPR_BENCH_JSON wins so CI can collect records from a fixed location.
  std::string Path() const {
    const char* override_path = std::getenv("CPR_BENCH_JSON");
    if (override_path != nullptr && override_path[0] != '\0') {
      return override_path;
    }
    return "BENCH_" + name_ + ".json";
  }

  // Serializes and writes the record; prints the path (or the error) to
  // stderr so a bench's stdout stays a clean table. Returns success.
  bool Write() const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_);
    w.Key("config").BeginObject();
    w.Key("scale").Double(config_.scale);
    w.Key("networks").Int(config_.networks);
    w.Key("timeout_seconds").Double(config_.timeout);
    w.Key("threads").Int(config_.threads);
    w.EndObject();
    w.Key("rows").BeginArray();
    for (const Row& row : rows_) {
      WriteFields(&w, row);
    }
    w.EndArray();
    w.Key("summary");
    WriteFields(&w, summary_);
    w.EndObject();

    std::string path = Path();
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench json: cannot open %s for writing\n", path.c_str());
      return false;
    }
    const std::string& json = w.str();
    bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size() &&
              std::fputc('\n', file) != EOF;
    ok = std::fclose(file) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "bench json: short write to %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "bench json written to %s\n", path.c_str());
    return true;
  }

 private:
  static void WriteFields(obs::JsonWriter* w, const Row& row) {
    w->BeginObject();
    for (const auto& [key, value] : row.fields_) {
      w->Key(key);
      if (const int64_t* as_int = std::get_if<int64_t>(&value)) {
        w->Int(*as_int);
      } else if (const double* as_double = std::get_if<double>(&value)) {
        w->Double(*as_double);
      } else {
        w->String(std::get<std::string>(value));
      }
    }
    w->EndObject();
  }

  std::string name_;
  BenchConfig config_;
  std::vector<Row> rows_;
  Row summary_;
};

inline Cpr MustBuildCpr(const std::vector<std::string>& texts,
                        const NetworkAnnotations& annotations) {
  Result<Cpr> built = Cpr::FromConfigTexts(texts, annotations);
  if (!built.ok()) {
    std::fprintf(stderr, "fatal: %s\n", built.error().message().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

}  // namespace cpr

#endif  // CPR_BENCH_BENCH_UTIL_H_

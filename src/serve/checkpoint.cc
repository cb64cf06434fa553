#include "serve/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "netbase/durable_file.h"
#include "netbase/string_util.h"

namespace cpr::serve {

namespace fs = std::filesystem;

Result<CheckpointStore> CheckpointStore::Open(const std::string& dir) {
  if (dir.empty()) {
    return Error("checkpoint dir must not be empty");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Error("cannot create checkpoint dir " + dir + ": " + ec.message());
  }
  return CheckpointStore(dir);
}

std::string CheckpointStore::RequestPath(uint64_t id) const {
  return dir_ + "/request-" + std::to_string(id) + ".ckpt";
}

std::string CheckpointStore::CompletedLogPath() const { return dir_ + "/completed.log"; }

std::string CheckpointStore::EncodeRecord(const CheckpointRecord& record) {
  WireFields fields;
  fields.emplace_back("id", std::to_string(record.id));
  fields.emplace_back("attempts", std::to_string(record.attempts));
  fields.emplace_back("budget", FormatDouble(record.budget));
  WireFields spec_fields = FieldsFromSpec(record.spec);
  fields.insert(fields.end(), spec_fields.begin(), spec_fields.end());
  return EncodeWireLine(fields);
}

Result<CheckpointRecord> CheckpointStore::DecodeRecord(const std::string& line) {
  Result<WireFields> fields = DecodeWireLine(line);
  if (!fields.ok()) {
    return fields.error();
  }
  WireView view(*fields);
  if (!view.Has("id")) {
    return Error("checkpoint record missing id");
  }
  Result<uint64_t> id = view.GetInt<uint64_t>("id");
  if (!id.ok()) {
    return id.error();
  }
  Result<int> attempts = view.GetInt<int>("attempts");
  if (!attempts.ok()) {
    return attempts.error();
  }
  Result<double> budget = view.GetDouble("budget");
  if (!budget.ok()) {
    return budget.error();
  }
  Result<RequestSpec> spec = SpecFromFields(*fields);
  if (!spec.ok()) {
    return spec.error();
  }
  CheckpointRecord record;
  record.id = *id;
  record.attempts = *attempts;
  record.budget = *budget;
  record.spec = std::move(spec).value();
  return record;
}

// Durable write-temp+fsync+rename discipline lives in netbase/durable_file.h
// (shared with the certify artifact writer).

Status CheckpointStore::Persist(const CheckpointRecord& record) {
  return WriteFileDurably(RequestPath(record.id), EncodeRecord(record) + "\n");
}

Status CheckpointStore::MarkCompleted(uint64_t id) {
  // Log first, unlink second: a crash in between leaves a request file that
  // the next LoadAndSweep removes via the log entry.
  Status logged = AppendLineDurably(CompletedLogPath(), std::to_string(id));
  if (!logged.ok()) {
    return logged;
  }
  std::error_code ec;
  fs::remove(RequestPath(id), ec);  // Missing file is fine (already swept).
  return Status::Ok();
}

Result<std::vector<CheckpointRecord>> CheckpointStore::LoadAndSweep() {
  // The mark: every id completed.log says finished.
  std::set<uint64_t> completed;
  {
    std::ifstream log(CompletedLogPath());
    std::string line;
    while (std::getline(log, line)) {
      if (!line.empty()) {
        uint64_t id = std::strtoull(line.c_str(), nullptr, 10);
        completed.insert(id);
        max_seen_id_ = std::max(max_seen_id_, id);
      }
    }
  }

  std::vector<CheckpointRecord> pending;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string name = entry.path().filename().string();
    if (name.rfind("request-", 0) != 0) {
      continue;
    }
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A torn write from a crashed daemon; the rename never happened, so
      // the record was never admitted durably.
      fs::remove(entry.path(), ec);
      continue;
    }
    std::ifstream in(entry.path());
    std::string line;
    if (!std::getline(in, line)) {
      continue;
    }
    Result<CheckpointRecord> record = DecodeRecord(line);
    if (!record.ok()) {
      return Error("corrupt checkpoint " + name + ": " + record.error().message());
    }
    max_seen_id_ = std::max(max_seen_id_, record->id);
    if (completed.count(record->id) != 0) {
      // The sweep: it finished; only the unlink was lost.
      fs::remove(entry.path(), ec);
      continue;
    }
    pending.push_back(std::move(record).value());
  }
  if (ec) {
    return Error("cannot list checkpoint dir " + dir_ + ": " + ec.message());
  }

  // Every logged id's file is now gone, so the log has served its purpose;
  // truncate it so it cannot grow without bound across restarts.
  std::ofstream truncate(CompletedLogPath(), std::ios::trunc);

  std::sort(pending.begin(), pending.end(),
            [](const CheckpointRecord& a, const CheckpointRecord& b) { return a.id < b.id; });
  return pending;
}

}  // namespace cpr::serve

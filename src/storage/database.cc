#include "storage/database.h"

#include <chrono>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/checkpoint.h"

namespace lightor::storage {

namespace {

obs::Counter& DbWritesCounter(const char* log) {
  static obs::Counter* const chat = obs::Registry::Global().GetCounter(
      "lightor_storage_db_writes_total", {{"log", "chat"}});
  static obs::Counter* const interactions = obs::Registry::Global().GetCounter(
      "lightor_storage_db_writes_total", {{"log", "interactions"}});
  static obs::Counter* const highlights = obs::Registry::Global().GetCounter(
      "lightor_storage_db_writes_total", {{"log", "highlights"}});
  switch (log[0]) {
    case 'c':
      return *chat;
    case 'i':
      return *interactions;
    default:
      return *highlights;
  }
}

/// Appends that failed (and whose record therefore never reached the
/// in-memory index). The serving layer surfaces these as 503s; a non-zero
/// rate here means viewer interactions are being refused, not silently
/// dropped.
obs::Counter& DbWriteErrorsCounter(const char* log) {
  static obs::Counter* const chat = obs::Registry::Global().GetCounter(
      "lightor_storage_write_errors_total", {{"log", "chat"}});
  static obs::Counter* const interactions = obs::Registry::Global().GetCounter(
      "lightor_storage_write_errors_total", {{"log", "interactions"}});
  static obs::Counter* const highlights = obs::Registry::Global().GetCounter(
      "lightor_storage_write_errors_total", {{"log", "highlights"}});
  switch (log[0]) {
    case 'c':
      return *chat;
    case 'i':
      return *interactions;
    default:
      return *highlights;
  }
}

/// True when `name` is `<base>.log` (gen 0) or `<base>.<n>.log` for one
/// of the three log bases; `gen` receives the generation.
bool ParseLogName(const std::string& name, uint64_t* gen) {
  for (const char* base : {"chat", "interactions", "highlights"}) {
    const std::string prefix = std::string(base) + ".";
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    std::string rest = name.substr(prefix.size());
    if (rest == "log") {
      *gen = 0;
      return true;
    }
    const size_t dot = rest.find('.');
    if (dot == std::string::npos || rest.substr(dot + 1) != "log") continue;
    const std::string digits = rest.substr(0, dot);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    *gen = std::stoull(digits);
    return true;
  }
  return false;
}

/// True when `name` is `ckpt.<n>`; `gen` receives n.
bool ParseCheckpointName(const std::string& name, uint64_t* gen) {
  const std::string prefix = "ckpt.";
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  const std::string digits = name.substr(prefix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *gen = std::stoull(digits);
  return true;
}

/// Appends every record to `log` with one flush, then indexes them in
/// `store`: all or none, since a failed append wedges the log and no
/// record of the batch reaches the store.
template <typename Record, typename Store>
common::Status AppendAndIndex(AppendLog& log, Store& store, const char* name,
                              std::vector<Record> records, uint64_t& lsn) {
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(records.size());
  for (const Record& record : records) frames.push_back(record.Encode());
  if (auto st = log.AppendMany(frames); !st.ok()) {
    DbWriteErrorsCounter(name).Increment();
    return st;
  }
  for (Record& record : records) store.Put(std::move(record));
  lsn += records.size();
  DbWritesCounter(name).Increment(records.size());
  return common::Status::OK();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

common::Result<Database::OpenResult> Database::Open(
    const OpenOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  Env* env = options.env != nullptr ? options.env : Env::Default();
  LIGHTOR_RETURN_IF_ERROR(env->CreateDirs(options.directory));
  std::unique_ptr<Database> db(new Database());
  db->env_ = env;
  db->directory_ = options.directory;
  db->options_ = options;
  RecoveryStats stats;

  LIGHTOR_ASSIGN_OR_RETURN(const auto manifest_opt,
                           ReadManifest(env, options.directory));
  const Manifest manifest = manifest_opt.value_or(Manifest{});
  db->log_gen_ = manifest.log_gen;
  stats.log_gen = manifest.log_gen;

  if (manifest.checkpoint_gen > 0) {
    LIGHTOR_ASSIGN_OR_RETURN(
        const auto image,
        LoadCheckpointImage(
            env, CheckpointFilePath(options.directory, manifest.checkpoint_gen),
            db->chat_, db->interactions_, db->highlights_));
    if (image.lsn != manifest.checkpoint_lsn) {
      return common::Status::Corruption(
          "checkpoint LSN disagrees with MANIFEST: " + options.directory);
    }
    stats.checkpoint_gen = manifest.checkpoint_gen;
    stats.checkpoint_lsn = image.lsn;
    stats.checkpoint_records = image.records;
    db->lsn_ = image.lsn;
  }

  db->chat_path_ = LogFilePath(options.directory, "chat", db->log_gen_);
  db->interaction_path_ =
      LogFilePath(options.directory, "interactions", db->log_gen_);
  db->highlight_path_ =
      LogFilePath(options.directory, "highlights", db->log_gen_);

  // Truncate torn tails, replay the suffix, and open — one call per log.
  common::Status replay_status = common::Status::OK();
  const struct {
    AppendLog& log;
    const std::string& path;
    std::function<void(const std::vector<uint8_t>&)> visit;
  } logs[] = {
      {db->chat_log_, db->chat_path_,
       [&](const std::vector<uint8_t>& bytes) {
         auto rec = ChatRecord::Decode(bytes);
         if (rec.ok()) db->chat_.Put(std::move(rec).value());
         else if (replay_status.ok()) replay_status = rec.status();
       }},
      {db->interaction_log_, db->interaction_path_,
       [&](const std::vector<uint8_t>& bytes) {
         auto rec = InteractionRecord::Decode(bytes);
         if (rec.ok()) db->interactions_.Put(std::move(rec).value());
         else if (replay_status.ok()) replay_status = rec.status();
       }},
      {db->highlight_log_, db->highlight_path_,
       [&](const std::vector<uint8_t>& bytes) {
         auto rec = HighlightRecord::Decode(bytes);
         if (rec.ok()) db->highlights_.Put(std::move(rec).value());
         else if (replay_status.ok()) replay_status = rec.status();
       }},
  };
  for (const auto& entry : logs) {
    LIGHTOR_ASSIGN_OR_RETURN(const auto replayed,
                             entry.log.OpenAndReplay(entry.path, entry.visit,
                                                     env));
    stats.records_replayed += replayed.records;
    stats.torn_bytes_truncated += replayed.torn_bytes;
  }
  if (!replay_status.ok()) return replay_status;
  db->lsn_ += stats.records_replayed;

  if (options.sync_on_flush) {
    db->chat_log_.set_sync_on_flush(true);
    db->interaction_log_.set_sync_on_flush(true);
    db->highlight_log_.set_sync_on_flush(true);
  }

  db->SweepStaleFiles(manifest.checkpoint_gen);

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  db->recovery_stats_ = stats;
  OpenResult result;
  result.db = std::move(db);
  result.stats = stats;
  return result;
}

void Database::SweepStaleFiles(uint64_t checkpoint_gen) {
  auto names = env_->ListDir(directory_);
  if (!names.ok()) return;  // best-effort
  for (const std::string& name : names.value()) {
    bool stale = false;
    uint64_t gen = 0;
    if (EndsWith(name, ".tmp") || EndsWith(name, ".compact")) {
      stale = true;  // torn temp from an interrupted checkpoint/compaction
    } else if (ParseLogName(name, &gen)) {
      stale = gen != log_gen_;
    } else if (ParseCheckpointName(name, &gen)) {
      stale = gen != checkpoint_gen;
    }
    if (!stale) continue;
    if (auto st = env_->RemoveFile(directory_ + "/" + name); !st.ok()) {
      LIGHTOR_LOG(Warning)
          << "storage: sweep of stale file failed (will retry next open): "
          << name << ": " << st.message();
    }
  }
}

Database::Stats Database::GetStats() const {
  Stats stats;
  stats.chat_records = chat_.TotalRecords();
  stats.interaction_records = interactions_.TotalRecords();
  stats.highlight_records = highlights_.TotalRecords();
  stats.highlight_dots = highlights_.NumDots();
  stats.chat_log_bytes = env_->GetFileSize(chat_path_).value_or(0);
  stats.interaction_log_bytes =
      env_->GetFileSize(interaction_path_).value_or(0);
  stats.highlight_log_bytes = env_->GetFileSize(highlight_path_).value_or(0);
  return stats;
}

common::Result<size_t> Database::CompactHighlights() {
  const std::string& path = highlight_path_;
  const std::string tmp_path = path + ".compact";
  std::vector<HighlightRecord> latest = highlights_.AllLatest();
  {
    AppendLog tmp;
    LIGHTOR_RETURN_IF_ERROR(tmp.Open(tmp_path, env_));
    for (const auto& rec : latest) {
      LIGHTOR_RETURN_IF_ERROR(tmp.Append(rec.Encode()));
    }
  }
  highlight_log_.Close();
  if (auto st = env_->RenameFile(tmp_path, path); !st.ok()) {
    // Try to keep serving: reopen the old log.
    (void)highlight_log_.Open(path, env_);
    return common::Status::IoError("compaction rename failed: " +
                                   st.message());
  }
  LIGHTOR_RETURN_IF_ERROR(highlight_log_.Open(path, env_));
  highlights_.ResetFrom(std::move(latest));
  return highlights_.TotalRecords();
}

common::Status Database::PutChat(std::vector<ChatRecord> records) {
  return AppendAndIndex(chat_log_, chat_, "chat", std::move(records), lsn_);
}

common::Status Database::PutInteraction(const InteractionRecord& record) {
  if (auto st = interaction_log_.Append(record.Encode()); !st.ok()) {
    DbWriteErrorsCounter("interactions").Increment();
    return st;
  }
  interactions_.Put(record);
  ++lsn_;
  DbWritesCounter("interactions").Increment();
  return common::Status::OK();
}

common::Status Database::PutHighlight(std::vector<HighlightRecord> records) {
  return AppendAndIndex(highlight_log_, highlights_, "highlights",
                        std::move(records), lsn_);
}

}  // namespace lightor::storage

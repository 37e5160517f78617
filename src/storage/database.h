#ifndef LIGHTOR_STORAGE_DATABASE_H_
#define LIGHTOR_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/log.h"
#include "storage/stores.h"

namespace lightor::storage {

/// Everything `DB::Open` needs, in one struct (PR 7 API redesign: the
/// old two-arg `Open(directory, options)` form is deprecated below).
struct OpenOptions {
  OpenOptions() = default;
  /// Shorthand for the common "defaults except the directory" case.
  explicit OpenOptions(std::string dir) : directory(std::move(dir)) {}

  /// Directory holding the logs / MANIFEST / checkpoint files. Created
  /// (recursively) if absent.
  std::string directory;
  /// File I/O environment; null means `Env::Default()` (real POSIX).
  Env* env = nullptr;
  /// fsync at every log flush point: records survive power loss, not
  /// just process crashes. See AppendLog::set_sync_on_flush.
  bool sync_on_flush = false;
  /// Policy applied by `Checkpoint()` runs against this database.
  CheckpointPolicy checkpoint;
};

/// What `DB::Open` recovered — typed, so callers (serving bootstrap,
/// tools, tests) can observe the recovery instead of inferring it.
struct RecoveryStats {
  uint64_t checkpoint_gen = 0;   ///< checkpoint loaded (0 = none)
  uint64_t checkpoint_lsn = 0;   ///< LSN that checkpoint covered
  uint64_t log_gen = 0;          ///< live log generation
  size_t checkpoint_records = 0; ///< records restored from the image
  size_t records_replayed = 0;   ///< log-suffix records replayed
  uint64_t torn_bytes_truncated = 0;  ///< torn tail bytes cut off
  double wall_seconds = 0.0;     ///< end-to-end recovery wall time
};

/// The LIGHTOR backend database (Section VI): three append-only logs
/// (chat, interactions, highlights) with in-memory indexes rebuilt on
/// open. Every Put appends to the WAL first, then updates the index, so
/// the in-memory state is always recoverable. All file I/O goes through a
/// `storage::Env` (see env.h for the crash model; tests inject faults via
/// `testing::FaultEnv`).
///
/// With checkpointing (see checkpoint.h for the on-disk layout and the
/// crash-safety argument), Open loads the newest checkpoint the MANIFEST
/// names and replays only the current log generation — a cold restart is
/// O(live state + suffix), not O(history). A directory without a
/// MANIFEST is the legacy single-generation layout and opens exactly as
/// before.
///
/// Not internally synchronized: callers serialize access (the serving
/// layer holds one db mutex around every call, including `Checkpoint`).
class Database {
 public:
  /// Nested alias so pre-redesign call sites that spelled
  /// `Database::OpenOptions` keep compiling against the new struct.
  using OpenOptions = storage::OpenOptions;

  /// An opened database plus what recovering it involved.
  struct OpenResult {
    std::unique_ptr<Database> db;
    RecoveryStats stats;
  };

  /// Opens (creating if needed) the database at `options.directory`:
  /// loads the checkpoint named by the MANIFEST (if any), recovers torn
  /// log tails, replays the log suffix into the in-memory stores, and
  /// sweeps files no generation references.
  static common::Result<OpenResult> Open(const OpenOptions& options);

  ~Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Appends `records` (typically one video's crawl) to the chat log with
  /// one flush (AppendLog::AppendMany), then indexes them. All or none
  /// reach the store: after an error the chat log is wedged and no record
  /// of the batch is readable, so a failed crawl leaves no partial chat.
  common::Status PutChat(std::vector<ChatRecord> records);
  /// One record: a one-element `PutChat` batch.
  common::Status PutChat(const ChatRecord& record) {
    return PutChat(std::vector<ChatRecord>{record});
  }
  common::Status PutInteraction(const InteractionRecord& record);
  /// A video's dots, with one flush and all or none readable, as for
  /// `PutChat`: a failed write never leaves a partial dot set to serve.
  common::Status PutHighlight(std::vector<HighlightRecord> records);
  /// One record: a one-element `PutHighlight` batch.
  common::Status PutHighlight(const HighlightRecord& record) {
    return PutHighlight(std::vector<HighlightRecord>{record});
  }

  /// True when an I/O error has wedged any of the three logs: every
  /// write to it fails until a `Checkpoint()` starts a fresh generation
  /// (or the database is reopened).
  bool wedged() const {
    return chat_log_.wedged() || interaction_log_.wedged() ||
           highlight_log_.wedged();
  }

  /// Batched-flush mode for the interaction log (the write-heavy session
  /// path): `PutInteraction` stops flushing per record and durability
  /// moves to `FlushInteractions()` calls. Per-record flush stays the
  /// default; see AppendLog::set_flush_each_append for the trade-off.
  void SetInteractionFlushEachAppend(bool flush_each) {
    interaction_log_.set_flush_each_append(flush_each);
  }
  common::Status FlushInteractions() { return interaction_log_.Flush(); }
  bool interactions_wedged() const { return interaction_log_.wedged(); }

  /// Snapshots the live state and rotates to a fresh log generation (the
  /// full protocol lives in checkpoint.h). Uses the policy from
  /// OpenOptions. Callers must hold whatever lock serializes writers.
  common::Result<CheckpointStats> Checkpoint() {
    return Checkpointer(this).Run(options_.checkpoint);
  }

  /// Aggregate counters plus on-disk log sizes.
  struct Stats {
    size_t chat_records = 0;
    size_t interaction_records = 0;
    size_t highlight_records = 0;  ///< versions (pre-compaction history)
    size_t highlight_dots = 0;     ///< distinct (video, dot) keys
    uintmax_t chat_log_bytes = 0;
    uintmax_t interaction_log_bytes = 0;
    uintmax_t highlight_log_bytes = 0;
  };
  Stats GetStats() const;

  /// Compacts the highlight log: every dot's refinement history collapses
  /// to its latest record (the log grows one record per Refine pass, so a
  /// long-lived deployment compacts periodically). Crash-safe: the new
  /// log is written to a temp file and renamed over the old one. Returns
  /// the number of records kept. A `Checkpoint()` subsumes this (the
  /// image stores latest-per-dot only).
  common::Result<size_t> CompactHighlights();

  ChatStore& chat() { return chat_; }
  InteractionStore& interactions() { return interactions_; }
  HighlightStore& highlights() { return highlights_; }

  const std::string& directory() const { return directory_; }
  Env* env() const { return env_; }

  /// Log sequence number: records recoverable right now (checkpoint base
  /// + live log records). Each successful Put advances it; the manifest
  /// records the LSN each checkpoint covers.
  uint64_t lsn() const { return lsn_; }
  /// Live log generation (0 until the first checkpoint).
  uint64_t log_gen() const { return log_gen_; }
  /// What the Open that produced this database recovered.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

 private:
  friend class Checkpointer;

  Database() = default;

  /// Removes files no generation references: `*.tmp`, `*.compact`,
  /// off-generation `ckpt.*` and logs. Best-effort (errors ignored);
  /// called from Open, after the manifest has been read.
  void SweepStaleFiles(uint64_t checkpoint_gen);

  Env* env_ = nullptr;
  std::string directory_;
  OpenOptions options_;
  uint64_t lsn_ = 0;
  uint64_t log_gen_ = 0;
  RecoveryStats recovery_stats_;
  std::string chat_path_;
  std::string interaction_path_;
  std::string highlight_path_;
  AppendLog chat_log_;
  AppendLog interaction_log_;
  AppendLog highlight_log_;
  ChatStore chat_;
  InteractionStore interactions_;
  HighlightStore highlights_;
};

/// The redesigned entry point reads as `storage::DB::Open(options)`.
using DB = Database;

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_DATABASE_H_

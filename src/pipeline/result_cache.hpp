// ResultCache: a persistent, content-addressed store of pipeline
// results, frozen at pass boundaries.
//
// The thermal DFA is the expensive step of every compile (iterate-to-δ
// over an RC grid per instruction); the AnalysisManager caches it within
// a run and the CompilationDriver parallelizes across functions, but
// nothing survived process exit — recompiling a module redid every
// converged DFA from scratch. This cache closes that gap.
//
// One record kind holds compile results: a *stage record* freezes a
// pipeline after its first k passes (PipelineSnapshot + prefix pass
// stats + analysis counters + prefix wall clock). A finished compile is
// simply the record at k = n, the boundary after the spec's last pass;
// a record at k < n is a prefix an incremental compile resumes from.
// Both are addressed by
//
//     stage key = H( ir::fingerprint(input function)
//                  ⊕ spec_prefix_digest(passes, k)
//                  ⊕ env digest )
//
// where the env digest folds the context digest (Floorplan/ThermalGrid/
// PowerModel/TimingModel::config_digest(), the ThermalDfaConfig, the
// policy seed) with the driver toggles that alter recorded statistics.
// Changing any one of these — and nothing else — invalidates exactly
// the records it should. A spec that *extends* a previously compiled
// one shares every prefix key with it, so lookup_longest_stage() can
// restore the longest cached prefix (k = n, n-1, ... 1). The function
// *name* is deliberately not part of the key: two identically-shaped
// functions share a record, and a restore re-stamps the requested name.
//
// On disk. Records live under a two-level hash layout,
// `<dir>/<key[0:2]>/<key[2:]>.entry`, and the record files are the
// cache's only state. Opening a cache walks them for size accounting;
// a record's mtime is its LRU stamp (a write gives a fresh one, a hit
// sets it to now), so recency survives a restart whether or not the
// process stored anything. Stage records and dependency-graph records
// share one checksummed envelope:
//
//     [u64 magic][u32 format version][u64 key.hi][u64 key.lo]
//     [str payload][u64 payload digest]
//
// where the trailing digest is a seeded hash over the payload bytes —
// the snapshot's function fingerprint cannot vouch for the *artifacts*
// riding along (assignment, ranking, gating), so the whole payload is
// checksummed. Writes are crash-safe: temp file + atomic rename, so
// readers see an old record or a new one, never half of one. Any
// mismatch (magic, version, key echo, payload digest, totalizing
// reader, fingerprint after re-parse) counts a bad entry, deletes the
// file, and degrades to probing a shorter prefix — worst case a full
// recompile, never a corrupt resume.
//
// Thread safety: all public methods are safe to call from concurrent
// driver workers (and from concurrent processes sharing the directory;
// each process's size accounting is then best-effort, since it only
// sees its own stores and evictions).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/pass_manager.hpp"
#include "support/serialize.hpp"

namespace tadfa::pipeline {

/// 128-bit content address of a cache entry (two independently seeded
/// 64-bit digests over the same inputs).
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lowercase hex chars; the on-disk entry name.
  std::string text() const;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// One pass-boundary freeze: the snapshot plus the reporting sidecar a
/// resumed run replays (prefix pass stats, analysis counters at the
/// boundary, prefix wall clock). Stored/retrieved by insert_stage and
/// lookup_longest_stage under spec-prefix keys; the freeze after the
/// last pass is a finished compile.
struct StageEntry {
  /// Number of leading passes the snapshot accounts for (the resume
  /// index).
  std::uint32_t passes_done = 0;
  PipelineSnapshot snapshot;
  std::vector<PassRunStats> pass_stats;
  std::vector<AnalysisManager::AnalysisStats> analysis_stats;
  double prefix_seconds = 0;

  /// Rebuilds a ResumeState named `function_name`: restores the
  /// snapshot, imports the sidecar analysis counters, and threads the
  /// prefix stats/clock through. nullopt when the snapshot does not
  /// reconstruct (corruption caught past the payload digest).
  std::optional<ResumeState> to_resume(const std::string& function_name) const;

  void serialize(ByteWriter& w) const;
  static std::optional<StageEntry> deserialize(ByteReader& r);

  friend bool operator==(const StageEntry&, const StageEntry&) = default;
};

struct ResultCacheStats {
  /// One of hits/misses per probe: a hit restored a finished compile
  /// (the record at k = n), a miss did not.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Finished-compile records (k = n) written.
  std::uint64_t stores = 0;
  /// Records rejected by the magic/version/key/digest/fingerprint
  /// checks or the totalizing reader; each is deleted on contact.
  std::uint64_t bad_entries = 0;
  std::uint64_t evictions = 0;
  std::uint64_t store_failures = 0;
  /// Lookups that threw (filesystem failure under the cache) and were
  /// degraded to misses by the caller (each also counts as a miss).
  std::uint64_t lookup_faults = 0;
  /// Prefix counters (incremental compilation). Only probes that may
  /// resume count these: a stage hit restored a k < n prefix, a stage
  /// miss restored nothing at any length (a finished restore counts
  /// neither). stage_stores counts k < n records written.
  std::uint64_t stage_hits = 0;
  std::uint64_t stage_misses = 0;
  std::uint64_t stage_stores = 0;
  /// Dependency-graph record counters (edit-aware compiles). Corrupt
  /// records fold into bad_entries, failed stores into store_failures,
  /// evicted records into evictions — same discipline as stages.
  std::uint64_t graph_hits = 0;
  std::uint64_t graph_misses = 0;
  std::uint64_t graph_stores = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  double stage_hit_rate() const {
    const std::uint64_t total = stage_hits + stage_misses;
    return total == 0 ? 0.0 : static_cast<double>(stage_hits) / total;
  }
};

class ResultCache {
 public:
  /// Versions the stage-record encoding (see file comment); records
  /// written by any other version are treated as misses and removed on
  /// contact.
  static constexpr std::uint32_t kStageFormatVersion = 1;
  /// Independently versioned dependency-graph record encoding, in the
  /// same envelope as stage records (magic "TADFADG1"). The payload is
  /// an opaque serialized pipeline::DependencyGraph; the cache checksums
  /// it exactly like a stage payload. Graph records share the directory,
  /// size accounting, and LRU eviction with stage records.
  static constexpr std::uint32_t kGraphFormatVersion = 1;

  /// Opens (creating directories as needed) a cache rooted at `dir`.
  /// `max_bytes` = 0 is unbounded; otherwise inserts evict
  /// least-recently-used records (stage and graph alike) until the
  /// total fits.
  explicit ResultCache(std::string dir, std::uint64_t max_bytes = 0);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// False when the directory could not be created/read; a disabled
  /// cache misses every lookup and drops every insert.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::string dir() const { return dir_.string(); }

  /// Digest of everything in the compilation environment a pipeline
  /// output depends on: the four model digests, the DFA config, and the
  /// policy seed.
  static std::uint64_t context_digest(const PipelineContext& ctx);

  /// Derives a stage-record address from the input fingerprint, a
  /// spec_prefix_digest, and the environment digest (see file comment).
  static CacheKey make_stage_key(std::uint64_t function_fingerprint,
                                 std::uint64_t spec_prefix_digest,
                                 std::uint64_t context_digest);

  /// Derives a dependency-graph record address from the module slot (a
  /// digest over the module's function *names*, stable across edits),
  /// the canonical spec, and the environment digest. A second seed pair
  /// keeps graph addresses disjoint from stage addresses.
  static CacheKey make_graph_key(std::uint64_t module_names_digest,
                                 const std::string& canonical_spec,
                                 std::uint64_t context_digest);

  /// Persists one pass-boundary freeze of `passes` compiling the input
  /// `function_fingerprint`, under the stage key for the prefix of
  /// `stage.passes_done` passes. The freeze at k = passes.size() is a
  /// finished compile and counts a store; earlier boundaries count a
  /// stage store. Overwriting an existing record is fine — identical
  /// content modulo timing — and refreshes its LRU stamp. Returns false
  /// when the cache is disabled, k is outside 1..n, or the write failed.
  bool insert_stage(std::uint64_t function_fingerprint,
                    const std::vector<PassSpec>& passes,
                    std::uint64_t context_digest, const StageEntry& stage);

  /// Raw access to the record after the first `k` of `passes` (tests,
  /// diagnostics). Counts a hit or miss at k = n and a stage hit or
  /// miss below; a corrupt record counts bad_entries and is removed.
  std::optional<StageEntry> lookup_stage(std::uint64_t function_fingerprint,
                                         const std::vector<PassSpec>& passes,
                                         std::size_t k,
                                         std::uint64_t context_digest);

  /// The one probe per function: tries k = n (a finished compile), then
  /// — when `prefixes` is set — k = n-1 .. 1, and returns the first
  /// record that restores into a usable ResumeState named
  /// `function_name`. A plain (non-incremental) cache passes false: it
  /// never holds a k < n record. Corrupt records at any k are removed
  /// (bad_entries) and the probe continues with shorter prefixes.
  /// Counts one hit (k = n restored) or one miss; with `prefixes`, a
  /// miss also counts a stage hit (k < n restored) or a stage miss.
  std::optional<ResumeState> lookup_longest_stage(
      std::uint64_t function_fingerprint, const std::vector<PassSpec>& passes,
      std::uint64_t context_digest, const std::string& function_name,
      bool prefixes);

  /// How a record read resolved. The edit-aware driver needs the
  /// three-way split: an absent graph record means "first compile of
  /// this module slot" (diff against an empty graph), while a corrupt
  /// one means the history is untrustworthy and the whole module
  /// recompiles.
  enum class GraphReadStatus { kHit, kMiss, kCorrupt };
  struct GraphRecord {
    GraphReadStatus status = GraphReadStatus::kMiss;
    /// The stored payload; meaningful only on kHit.
    std::string payload;
  };

  /// Persists one dependency-graph payload. Counts a graph store (or a
  /// store failure); overwriting the record for a module slot is the
  /// normal case — every edit-aware compile rewrites it (atomically,
  /// temp + rename).
  bool insert_graph(const CacheKey& key, const std::string& payload);

  /// Reads + validates one graph record. A corrupt record counts
  /// bad_entries, is deleted (with its byte accounting), and reports
  /// kCorrupt.
  GraphRecord lookup_graph(const CacheKey& key);

  /// Books a lookup that threw out of the cache as a miss plus a
  /// lookup fault. The CompilationDriver shields its work items from
  /// cache exceptions (a broken cache degrades the compile, never kills
  /// it) and attributes the fault here so stats_table shows it.
  void count_lookup_fault();
  /// Books an insert that threw as a store failure (the result simply
  /// goes unpersisted).
  void count_store_fault();

  /// Test-only fault injection: when set, the hook runs at the top of
  /// every lookup and insert with the operation name ("lookup" /
  /// "insert" for stage records, "graph-lookup" / "graph-insert" for
  /// graph records) and may throw to simulate a filesystem failure
  /// (cache directory deleted mid-run, disk full, permission flip). Set
  /// it before handing the cache to concurrent workers; it is read
  /// without synchronization while compiles run.
  void set_fault_hook(std::function<void(std::string_view op)> hook) {
    fault_hook_ = std::move(hook);
  }

  ResultCacheStats stats() const;
  std::size_t entry_count() const;
  std::uint64_t total_bytes() const;

  /// Hit/miss/store/evict counter table, printed by `tadfa
  /// --cache-stats` next to the analysis-cache statistics.
  TextTable stats_table(const std::string& title = "result cache") const;

 private:
  struct IndexEntry {
    std::uint64_t bytes = 0;
    /// Recency stamp for LRU eviction (monotone per process; seeded
    /// from the record mtimes on open).
    std::uint64_t seq = 0;
  };
  /// What tells one record kind's envelope from another's. Magics are
  /// written little-endian, so a file starts with the spelling reversed.
  struct Envelope {
    std::uint64_t magic;
    std::uint32_t version;
    /// Seed of the payload checksum stream.
    std::uint64_t payload_seed;
  };
  static constexpr Envelope kStageEnvelope{
      0x5441444641534731ull /* "TADFASG1" */, kStageFormatVersion,
      0x7374672d73756d31ull /* "stg-sum1" */};
  static constexpr Envelope kGraphEnvelope{
      0x5441444641444731ull /* "TADFADG1" */, kGraphFormatVersion,
      0x6465702d73756d31ull /* "dep-sum1" */};

  std::filesystem::path entry_path(const CacheKey& key) const;
  /// Walks the record files: one stat each for size and mtime, with
  /// the LRU order seeded oldest-first by (mtime, key text).
  void scan_records_locked();
  /// Deletes the entry file and index row; `count_bad` attributes the
  /// removal to corruption rather than eviction.
  void remove_entry_locked(const std::string& key_text, bool count_bad);
  void evict_until_fits_locked();
  /// The shared write path: wraps `payload` in `kind`'s envelope, writes
  /// it under `key`, books `counter` (or a store failure), the index
  /// row, and eviction.
  bool write_record(const CacheKey& key, const Envelope& kind,
                    std::string_view payload,
                    std::uint64_t ResultCacheStats::*counter);
  /// The shared validated read: magic, version, key echo, and payload
  /// digest. A record that fails any check is deleted and counted bad
  /// (kCorrupt); a hit refreshes the LRU stamp, in memory and as the
  /// file's mtime. Counts no hit or miss.
  GraphRecord read_record(const CacheKey& key, const Envelope& kind);
  /// read_record plus StageEntry decoding; nullopt when absent or
  /// corrupt (a payload that does not decode is deleted and counted).
  std::optional<StageEntry> read_stage(const CacheKey& key);

  std::filesystem::path dir_;
  std::uint64_t max_bytes_ = 0;
  bool ok_ = false;
  std::string error_;

  mutable std::mutex mu_;
  std::map<std::string, IndexEntry> index_;
  /// Running sum of index_ entry bytes (kept incrementally so inserts
  /// do not rescan the map).
  std::uint64_t bytes_total_ = 0;
  std::uint64_t next_seq_ = 1;
  ResultCacheStats stats_;
  std::function<void(std::string_view)> fault_hook_;
};

}  // namespace tadfa::pipeline

#include "pipeline/result_cache.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <tuple>

namespace tadfa::pipeline {
namespace {

namespace fs = std::filesystem;

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

bool is_hex(const std::string& s) {
  for (char c : s) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) {
      return false;
    }
  }
  return true;
}

/// Process+thread-unique temp suffix so concurrent writers (threads or
/// processes) never collide on the same temp file.
std::string temp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream os;
  os << ".tmp-" << ::getpid() << "-"
     << counter.fetch_add(1, std::memory_order_relaxed);
  return os.str();
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return std::nullopt;
  }
  return buffer.str();
}

/// Crash-safe write: temp file in the destination directory, then an
/// atomic rename over the final name.
bool write_file_atomic(const fs::path& path, const std::string& bytes) {
  const fs::path tmp = path.string() + temp_suffix();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace

std::string CacheKey::text() const { return hex64(hi) + hex64(lo); }

// --- StageEntry --------------------------------------------------------------

std::optional<ResumeState> StageEntry::to_resume(
    const std::string& function_name) const {
  auto state = snapshot.restore(function_name);
  if (!state.has_value()) {
    return std::nullopt;
  }
  ResumeState resume(std::move(*state));
  resume.passes_done = passes_done;
  resume.pass_stats = pass_stats;
  resume.prefix_seconds = prefix_seconds;
  // The producing run's counters ride the sidecar; restored artifacts
  // were re-registered stat-neutrally, so this is the only source and
  // the resumed run's reporting matches the cold run's exactly.
  resume.state.analyses.import_stats(analysis_stats);
  return resume;
}

void StageEntry::serialize(ByteWriter& w) const {
  w.u32(passes_done);
  snapshot.serialize(w);
  w.u64(pass_stats.size());
  for (const PassRunStats& s : pass_stats) {
    w.str(s.name);
    w.f64(s.seconds);
    w.str(s.summary);
    w.boolean(s.changed);
    w.u64(s.instructions_after);
    w.u32(s.vregs_after);
  }
  w.u64(analysis_stats.size());
  for (const AnalysisManager::AnalysisStats& s : analysis_stats) {
    w.str(s.name);
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.puts);
    w.u64(s.invalidations);
  }
  w.f64(prefix_seconds);
}

std::optional<StageEntry> StageEntry::deserialize(ByteReader& r) {
  StageEntry entry;
  entry.passes_done = r.u32();
  auto snapshot = PipelineSnapshot::deserialize(r);
  if (!snapshot.has_value()) {
    return std::nullopt;
  }
  entry.snapshot = std::move(*snapshot);
  const std::uint64_t num_passes = r.u64();
  for (std::uint64_t i = 0; i < num_passes && r.ok(); ++i) {
    PassRunStats s;
    s.name = r.str();
    s.seconds = r.f64();
    s.summary = r.str();
    s.changed = r.boolean();
    s.instructions_after = r.u64();
    s.vregs_after = r.u32();
    entry.pass_stats.push_back(std::move(s));
  }
  const std::uint64_t num_analyses = r.u64();
  for (std::uint64_t i = 0; i < num_analyses && r.ok(); ++i) {
    AnalysisManager::AnalysisStats s;
    s.name = r.str();
    s.hits = r.u64();
    s.misses = r.u64();
    s.puts = r.u64();
    s.invalidations = r.u64();
    entry.analysis_stats.push_back(std::move(s));
  }
  entry.prefix_seconds = r.f64();
  if (!r.ok()) {
    return std::nullopt;
  }
  return entry;
}

// --- ResultCache -------------------------------------------------------------

ResultCache::ResultCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    error_ = "cannot create cache directory '" + dir_.string() +
             "': " + (ec ? ec.message() : "not a directory");
    return;
  }
  ok_ = true;
  std::lock_guard<std::mutex> lock(mu_);
  scan_records_locked();
}

std::uint64_t ResultCache::context_digest(const PipelineContext& ctx) {
  Hasher h;
  h.mix(ctx.floorplan != nullptr ? ctx.floorplan->config_digest() : 0);
  h.mix(ctx.grid != nullptr ? ctx.grid->config_digest() : 0);
  h.mix(ctx.power != nullptr ? ctx.power->config_digest() : 0);
  h.mix(ctx.timing.config_digest());
  h.mix(ctx.dfa_config.delta_k);
  h.mix(static_cast<std::uint64_t>(ctx.dfa_config.max_iterations));
  h.mix(ctx.dfa_config.trip_count_guess);
  h.mix(static_cast<std::uint64_t>(ctx.dfa_config.include_leakage));
  h.mix(static_cast<std::uint64_t>(ctx.dfa_config.join_mode));
  h.mix(ctx.policy_seed);
  return h.digest();
}

CacheKey ResultCache::make_stage_key(std::uint64_t function_fingerprint,
                                     std::uint64_t spec_prefix_digest,
                                     std::uint64_t context_digest) {
  CacheKey key;
  key.hi = Hasher(0x68692d737467ull /* "hi-stg" */)
               .mix(function_fingerprint)
               .mix(spec_prefix_digest)
               .mix(context_digest)
               .digest();
  key.lo = Hasher(0x6c6f2d737467ull /* "lo-stg" */)
               .mix(function_fingerprint)
               .mix(spec_prefix_digest)
               .mix(context_digest)
               .digest();
  return key;
}

CacheKey ResultCache::make_graph_key(std::uint64_t module_names_digest,
                                     const std::string& canonical_spec,
                                     std::uint64_t context_digest) {
  CacheKey key;
  key.hi = Hasher(0x68692d646570ull /* "hi-dep" */)
               .mix(module_names_digest)
               .mix(canonical_spec)
               .mix(context_digest)
               .digest();
  key.lo = Hasher(0x6c6f2d646570ull /* "lo-dep" */)
               .mix(module_names_digest)
               .mix(canonical_spec)
               .mix(context_digest)
               .digest();
  return key;
}

fs::path ResultCache::entry_path(const CacheKey& key) const {
  const std::string text = key.text();
  return dir_ / text.substr(0, 2) / (text.substr(2) + ".entry");
}

bool ResultCache::write_record(const CacheKey& key, const Envelope& kind,
                               std::string_view payload,
                               std::uint64_t ResultCacheStats::*counter) {
  ByteWriter w;
  w.u64(kind.magic);
  w.u32(kind.version);
  w.u64(key.hi);
  w.u64(key.lo);
  w.str(payload);
  // Whole-payload checksum: a stage snapshot's function fingerprint
  // cannot vouch for the artifacts riding along (assignment, ranking,
  // gating), and a graph payload is opaque to this layer, so a bit flip
  // anywhere in the payload must fail loudly on the read side.
  w.u64(Hasher(kind.payload_seed).mix(payload).digest());
  const std::string& bytes = w.data();

  const fs::path path = entry_path(key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec || !write_file_atomic(path, bytes)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_failures;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++(stats_.*counter);
  IndexEntry& row = index_[key.text()];
  bytes_total_ += bytes.size() - row.bytes;  // 0 for a fresh row
  row.bytes = bytes.size();
  row.seq = next_seq_++;
  evict_until_fits_locked();
  return true;
}

ResultCache::GraphRecord ResultCache::read_record(const CacheKey& key,
                                                  const Envelope& kind) {
  GraphRecord record;
  if (!ok_) {
    return record;
  }
  const fs::path path = entry_path(key);
  const auto bytes = read_file(path);
  if (!bytes.has_value()) {
    return record;
  }
  ByteReader r(*bytes);
  bool valid = r.u64() == kind.magic && r.u32() == kind.version &&
               r.u64() == key.hi && r.u64() == key.lo;
  if (valid) {
    record.payload = r.str();
    const std::uint64_t digest = r.u64();
    valid = r.ok() && r.remaining() == 0 &&
            Hasher(kind.payload_seed)
                    .mix(std::string_view(record.payload))
                    .digest() == digest;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!valid) {
      // A record exists but cannot be trusted: delete it (releasing its
      // bytes with the index row) so the next store rewrites it.
      remove_entry_locked(key.text(), /*count_bad=*/true);
      record.payload.clear();
      record.status = GraphReadStatus::kCorrupt;
      return record;
    }
    if (auto it = index_.find(key.text()); it != index_.end()) {
      it->second.seq = next_seq_++;  // LRU touch
    }
  }
  // The on-disk LRU touch: the next process to open the cache seeds its
  // order from the mtimes. A read-only directory still serves; its
  // records just keep their old stamps.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  record.status = GraphReadStatus::kHit;
  return record;
}

std::optional<StageEntry> ResultCache::read_stage(const CacheKey& key) {
  const GraphRecord record = read_record(key, kStageEnvelope);
  if (record.status != GraphReadStatus::kHit) {
    return std::nullopt;
  }
  ByteReader r(record.payload);
  auto entry = StageEntry::deserialize(r);
  if (!entry.has_value() || r.remaining() != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    remove_entry_locked(key.text(), /*count_bad=*/true);
    return std::nullopt;
  }
  return entry;
}

// --- Stage records -----------------------------------------------------------

bool ResultCache::insert_stage(std::uint64_t function_fingerprint,
                               const std::vector<PassSpec>& passes,
                               std::uint64_t context_digest,
                               const StageEntry& stage) {
  if (fault_hook_) {
    fault_hook_("insert");
  }
  const std::size_t k = stage.passes_done;
  if (!ok_ || k == 0 || k > passes.size()) {
    return false;
  }
  ByteWriter payload;
  stage.serialize(payload);
  return write_record(
      make_stage_key(function_fingerprint, spec_prefix_digest(passes, k),
                     context_digest),
      kStageEnvelope, payload.data(),
      k == passes.size() ? &ResultCacheStats::stores
                         : &ResultCacheStats::stage_stores);
}

std::optional<StageEntry> ResultCache::lookup_stage(
    std::uint64_t function_fingerprint, const std::vector<PassSpec>& passes,
    std::size_t k, std::uint64_t context_digest) {
  if (fault_hook_) {
    fault_hook_("lookup");
  }
  auto entry = read_stage(make_stage_key(
      function_fingerprint, spec_prefix_digest(passes, k), context_digest));
  std::lock_guard<std::mutex> lock(mu_);
  if (k == passes.size()) {
    ++(entry ? stats_.hits : stats_.misses);
  } else {
    ++(entry ? stats_.stage_hits : stats_.stage_misses);
  }
  return entry;
}

std::optional<ResumeState> ResultCache::lookup_longest_stage(
    std::uint64_t function_fingerprint, const std::vector<PassSpec>& passes,
    std::uint64_t context_digest, const std::string& function_name,
    bool prefixes) {
  if (fault_hook_) {
    fault_hook_("lookup");
  }
  const std::size_t n = passes.size();
  const std::size_t shortest = prefixes ? 1 : n;
  std::optional<ResumeState> resume;
  for (std::size_t k = n; k >= 1 && k >= shortest; --k) {
    const CacheKey key = make_stage_key(
        function_fingerprint, spec_prefix_digest(passes, k), context_digest);
    auto entry = read_stage(key);
    if (!entry.has_value()) {
      continue;  // absent or already removed as corrupt; try shorter
    }
    // A payload that disagrees with the key it was stored under, or a
    // snapshot that does not reconstruct, is as corrupt as a bad digest.
    if (entry->passes_done == k) {
      resume = entry->to_resume(function_name);
    }
    if (resume) {
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    remove_entry_locked(key.text(), /*count_bad=*/true);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (resume && resume->passes_done == n) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    if (prefixes) {
      ++(resume ? stats_.stage_hits : stats_.stage_misses);
    }
  }
  return resume;
}

// --- Dependency-graph records ------------------------------------------------

bool ResultCache::insert_graph(const CacheKey& key,
                               const std::string& payload) {
  if (fault_hook_) {
    fault_hook_("graph-insert");
  }
  return ok_ && write_record(key, kGraphEnvelope, payload,
                             &ResultCacheStats::graph_stores);
}

ResultCache::GraphRecord ResultCache::lookup_graph(const CacheKey& key) {
  if (fault_hook_) {
    fault_hook_("graph-lookup");
  }
  GraphRecord record = read_record(key, kGraphEnvelope);
  std::lock_guard<std::mutex> lock(mu_);
  ++(record.status == GraphReadStatus::kHit ? stats_.graph_hits
                                            : stats_.graph_misses);
  return record;
}

void ResultCache::scan_records_locked() {
  // The record files are the whole state: anything else in the
  // directory (a writer's temp file, a side file an older build left)
  // is neither counted nor touched.
  struct Found {
    timespec mtime;
    std::string key_text;
    std::uint64_t bytes;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (fs::directory_iterator dir_it(dir_, ec);
       !ec && dir_it != fs::directory_iterator(); ++dir_it) {
    if (!dir_it->is_directory()) {
      continue;
    }
    const std::string prefix = dir_it->path().filename().string();
    if (prefix.size() != 2 || !is_hex(prefix)) {
      continue;
    }
    for (fs::directory_iterator file_it(dir_it->path(), ec);
         !ec && file_it != fs::directory_iterator(); ++file_it) {
      const fs::path& p = file_it->path();
      if (p.extension() != ".entry") {
        continue;
      }
      const std::string stem = p.stem().string();
      struct stat st{};
      if (stem.size() != 30 || !is_hex(stem) || ::stat(p.c_str(), &st) != 0) {
        continue;
      }
      found.push_back({st.st_mtim, prefix + stem,
                       static_cast<std::uint64_t>(st.st_size)});
    }
  }
  // Oldest first, ties broken by key text so the order is total and
  // does not depend on directory order.
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return std::tie(a.mtime.tv_sec, a.mtime.tv_nsec, a.key_text) <
           std::tie(b.mtime.tv_sec, b.mtime.tv_nsec, b.key_text);
  });
  for (const Found& f : found) {
    index_[f.key_text] = {f.bytes, next_seq_++};
    bytes_total_ += f.bytes;
  }
}

void ResultCache::remove_entry_locked(const std::string& key_text,
                                      bool count_bad) {
  if (count_bad) {
    ++stats_.bad_entries;
  }
  if (key_text.size() == 32) {
    std::error_code ec;
    fs::remove(dir_ / key_text.substr(0, 2) /
                   (key_text.substr(2) + ".entry"),
               ec);
  }
  if (auto it = index_.find(key_text); it != index_.end()) {
    bytes_total_ -= it->second.bytes;
    index_.erase(it);
  }
}

void ResultCache::evict_until_fits_locked() {
  if (max_bytes_ == 0) {
    return;
  }
  while (index_.size() > 1 && bytes_total_ > max_bytes_) {
    auto oldest = index_.begin();
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it->second.seq < oldest->second.seq) {
        oldest = it;
      }
    }
    remove_entry_locked(oldest->first, /*count_bad=*/false);
    ++stats_.evictions;
  }
}

void ResultCache::count_lookup_fault() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  ++stats_.lookup_faults;
}

void ResultCache::count_store_fault() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.store_failures;
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ResultCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::uint64_t ResultCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_total_;
}

TextTable ResultCache::stats_table(const std::string& title) const {
  const ResultCacheStats s = stats();
  TextTable table(title);
  table.set_header({"counter", "value"});
  table.add_row({"hits", std::to_string(s.hits)});
  table.add_row({"misses", std::to_string(s.misses)});
  table.add_row({"hit rate", TextTable::num(s.hit_rate() * 100.0, 1) + "%"});
  table.add_row({"stores", std::to_string(s.stores)});
  table.add_row({"bad entries", std::to_string(s.bad_entries)});
  table.add_row({"evictions", std::to_string(s.evictions)});
  table.add_row({"store failures", std::to_string(s.store_failures)});
  table.add_row({"lookup faults", std::to_string(s.lookup_faults)});
  table.add_row({"stage hits", std::to_string(s.stage_hits)});
  table.add_row({"stage misses", std::to_string(s.stage_misses)});
  table.add_row({"stage hit rate",
                 TextTable::num(s.stage_hit_rate() * 100.0, 1) + "%"});
  table.add_row({"stage stores", std::to_string(s.stage_stores)});
  table.add_row({"graph hits", std::to_string(s.graph_hits)});
  table.add_row({"graph misses", std::to_string(s.graph_misses)});
  table.add_row({"graph stores", std::to_string(s.graph_stores)});
  table.add_row({"entries", std::to_string(entry_count())});
  table.add_row({"bytes", std::to_string(total_bytes())});
  return table;
}

}  // namespace tadfa::pipeline

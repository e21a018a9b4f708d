// Shared scaffolding for the per-table/figure experiment binaries: flag
// parsing, a process-wide cached golden image (with a host-file cache so
// repeated bench runs skip the TPC-C load), fixed-width table printing, and
// the standard warmup+measure protocol.
//
// Every binary accepts:
//   --warehouses=N   TPC-C scale (default 1)
//   --quick          ~1/4 of the default transaction counts
//   --warmup=N       override warmup transactions per configuration
//   --txns=N         override measured transactions per configuration
//   --seed=S         override the workload request-stream seed (default 42)
//   --no-cache       do not read/write the golden image file cache
//   --json           also write BENCH_<bench>.json (see bench/README.md for
//                    the schema) — the machine-readable perf trajectory CI
//                    archives per run
//   --stats-json     enable the metrics registry and embed its snapshot as
//                    a top-level "obs" block in BENCH_<bench>.json
//   --trace=<file>   enable metrics + tracing and write a Chrome
//                    trace-event JSON (Perfetto-loadable) to <file>
//   --fault-profile=<name>
//                    bench_workloads only: append a fault-tolerance section
//                    (transient | flash-loss | bit-rot) that arms the flash
//                    device with a named transient-fault preset and reports
//                    degraded-window throughput, retry counts, and scrub
//                    repairs. Off by default: without the flag the output
//                    and BENCH_*.json stay byte-identical to the baselines.
//
// --txns and --seed together give CI a cheap deterministic smoke run:
//   bench_workloads --txns=200 --warmup=100 --seed=7
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "testbed/testbed.h"
#include "workload/tpcc_workload.h"

namespace face {
namespace bench {

/// Parsed common flags.
struct BenchFlags {
  uint32_t warehouses = 1;
  bool quick = false;
  bool use_cache = true;
  bool json = false;         ///< write BENCH_<bench>.json
  uint64_t warmup_txns = 0;  ///< 0 = per-bench default
  uint64_t txns = 0;         ///< 0 = per-bench default
  uint64_t seed = 42;        ///< workload request-stream seed
  bool stats_json = false;   ///< embed an "obs" metrics block in the JSON
  std::string trace_path;    ///< Chrome trace output ("" = tracing off)
  uint32_t shards = 1;       ///< sharded execution (bench_workloads only)
  std::string fault_profile; ///< named transient-fault preset ("" = off)

  uint64_t WarmupOr(uint64_t dflt) const {
    if (warmup_txns != 0) return warmup_txns;
    return quick ? dflt / 4 : dflt;
  }
  uint64_t TxnsOr(uint64_t dflt) const {
    if (txns != 0) return txns;
    return quick ? dflt / 4 : dflt;
  }
};

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--no-cache") {
      flags.use_cache = false;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg.rfind("--warehouses=", 0) == 0) {
      flags.warehouses = static_cast<uint32_t>(atoi(arg.c_str() + 13));
    } else if (arg.rfind("--warmup=", 0) == 0) {
      flags.warmup_txns = strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--txns=", 0) == 0) {
      flags.txns = strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--stats-json") {
      flags.stats_json = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      flags.trace_path = arg.substr(8);
    } else if (arg.rfind("--shards=", 0) == 0) {
      flags.shards = static_cast<uint32_t>(atoi(arg.c_str() + 9));
      if (flags.shards == 0) flags.shards = 1;
    } else if (arg.rfind("--fault-profile=", 0) == 0) {
      flags.fault_profile = arg.substr(16);
    } else {
      fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      exit(2);
    }
  }
  if (flags.stats_json || !flags.trace_path.empty()) {
    obs::SetEnabled(true);
    if (!flags.trace_path.empty()) obs::Tracer::Instance().SetEnabled(true);
  }
  return flags;
}

/// Try to restore a golden image's device contents + allocator mark from
/// the host-file cache at `cache_path` (+ ".meta"). The caller provides the
/// GoldenImage with device and factory already wired.
inline bool TryLoadImageFile(GoldenImage* golden,
                             const std::string& cache_path) {
  FILE* meta = fopen((cache_path + ".meta").c_str(), "rb");
  if (meta == nullptr) return false;
  uint64_t next_page_id = 0;
  const bool meta_ok = fread(&next_page_id, 8, 1, meta) == 1;
  fclose(meta);
  if (!meta_ok || !golden->device->LoadContents(cache_path).ok()) return false;
  golden->next_page_id = next_page_id;
  fprintf(stderr, "[golden] loaded %s (%" PRIu64 " pages)\n",
          cache_path.c_str(), golden->db_pages());
  return true;
}

/// Save a golden image to the host-file cache (best effort).
inline void SaveImageFile(const GoldenImage& golden,
                          const std::string& cache_path) {
  if (!golden.device->SaveContents(cache_path).ok()) return;
  FILE* meta = fopen((cache_path + ".meta").c_str(), "wb");
  if (meta == nullptr) return;
  fwrite(&golden.next_page_id, 8, 1, meta);
  fclose(meta);
}

/// Build (or load from the file cache) the golden image for any workload
/// factory. `cache_tag` keys the cache file ("face_golden_<tag>.img");
/// factories whose loads are byte-identical (same records/value_bytes KV
/// populations) may share a tag, and a tag must change whenever the load
/// format does. Empty tag or --no-cache disables the file cache. Exits on
/// failure — benches have no meaningful degraded mode.
inline GoldenImage LoadOrBuildGolden(
    std::shared_ptr<const workload::WorkloadFactory> factory,
    const BenchFlags& flags, const std::string& cache_tag) {
  const std::string cache_path = "face_golden_" + cache_tag + ".img";
  if (flags.use_cache && !cache_tag.empty()) {
    GoldenImage from_file;
    from_file.factory = factory;
    from_file.device = std::make_unique<SimDevice>(
        "golden", DeviceProfile::Seagate15k(), factory->CapacityPages());
    from_file.device->set_timing_enabled(false);
    if (TryLoadImageFile(&from_file, cache_path)) return from_file;
  }

  fprintf(stderr, "[golden] loading %s...\n", factory->name());
  auto built = GoldenImage::BuildFor(std::move(factory));
  if (!built.ok()) {
    fprintf(stderr, "golden build failed: %s\n",
            built.status().ToString().c_str());
    exit(1);
  }
  fprintf(stderr, "[golden] built: %" PRIu64 " pages (%.1f MB)\n",
          built->db_pages(), built->db_pages() * 4.0 / 1024);
  if (flags.use_cache && !cache_tag.empty()) {
    SaveImageFile(*built, cache_path);
  }
  return std::move(built.value());
}

/// Build (or load from the file cache) the golden TPC-C image for
/// `warehouses`, shared process-wide. Exits on failure.
inline const GoldenImage& GetGolden(const BenchFlags& flags) {
  static GoldenImage golden;
  static bool built = false;
  if (built) return golden;

  golden = LoadOrBuildGolden(
      std::make_shared<workload::TpccFactory>(flags.warehouses), flags,
      "w" + std::to_string(flags.warehouses));
  golden.warehouses = flags.warehouses;
  built = true;
  return golden;
}

/// Database checkpoint cadence during measured steady-state runs. The
/// paper's PostgreSQL checkpointed continuously during its hours-long
/// runs; checkpoint handling is a first-order cost difference between the
/// policies (FaCE absorbs checkpoints into flash, LC must flush its
/// flash-dirty pages to disk, §2.3). Scaled like bench_table6's intervals.
inline constexpr SimNanos kCheckpointEvery = 3 * kNanosPerSecond;

/// Flash cache capacity for "X % of the database" (the paper's x axis).
inline uint64_t CachePagesForRatio(const GoldenImage& golden, double ratio) {
  return static_cast<uint64_t>(static_cast<double>(golden.db_pages()) *
                               ratio);
}

/// Run the standard protocol: Start, warmup, one measured batch.
/// Exits on failure.
inline RunResult MeasureSteadyState(Testbed* tb, uint64_t warmup_txns,
                                    uint64_t txns,
                                    SimNanos checkpoint_interval = 0) {
  auto die = [](const Status& s, const char* what) {
    if (!s.ok()) {
      fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
      exit(1);
    }
  };
  die(tb->Start(), "testbed start");
  die(tb->Warmup(warmup_txns), "warmup");
  RunOptions run;
  run.txns = txns;
  run.checkpoint_interval = checkpoint_interval;
  auto result = tb->Run(run);
  die(result.status(), "measured run");
  return std::move(result.value());
}

/// Print a row of fixed-width columns: first column left-aligned 14 wide,
/// the rest right-aligned 10 wide.
inline void PrintRow(const std::string& head,
                     const std::vector<std::string>& cells) {
  printf("%-14s", head.c_str());
  for (const auto& c : cells) printf(" %10s", c.c_str());
  printf("\n");
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline void PrintHeader(const char* title) {
  printf("\n=== %s ===\n", title);
}

/// Accumulates one flat JSON document per bench run and writes it to
/// BENCH_<bench>.json: a `flags` object plus a `rows` array of
/// (workload x policy) measurement objects. CI uploads the file as an
/// artifact, so the perf trajectory of the reproduction is queryable
/// across commits. Schema in bench/README.md.
class JsonReporter {
 public:
  /// JSON string escaping per RFC 8259: quotes, backslashes, and control
  /// characters. Everything the reporter splices as a string value goes
  /// through here, so an arbitrary workload/policy/device label cannot
  /// produce an invalid document.
  static std::string Escape(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            snprintf(buf, sizeof(buf), "\\u%04x",
                     static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  JsonReporter(std::string bench, const BenchFlags& flags)
      : bench_(std::move(bench)) {
    body_ += "{\n  \"bench\": \"" + Escape(bench_) + "\",\n";
    body_ += "  \"flags\": {";
    body_ += "\"warehouses\": " + std::to_string(flags.warehouses);
    body_ += ", \"warmup\": " + std::to_string(flags.warmup_txns);
    body_ += ", \"txns\": " + std::to_string(flags.txns);
    body_ += ", \"seed\": " + std::to_string(flags.seed);
    body_ += ", \"quick\": ";
    body_ += flags.quick ? "true" : "false";
    // Only sharded runs record the shard count: default artifacts stay
    // byte-identical with baselines captured before the flag existed.
    if (flags.shards > 1) {
      body_ += ", \"shards\": " + std::to_string(flags.shards);
    }
    // Same rule for the fault preset: absent unless the flag is set.
    if (!flags.fault_profile.empty()) {
      body_ += ", \"fault_profile\": \"" + Escape(flags.fault_profile) + "\"";
    }
    body_ += "},\n  \"rows\": [";
  }

  /// Start a measurement row; follow with Field() calls.
  void BeginRow(const std::string& workload, const std::string& policy) {
    body_ += first_row_ ? "\n" : ",\n";
    first_row_ = false;
    body_ += "    {\"workload\": \"" + Escape(workload) +
             "\", \"policy\": \"" + Escape(policy) + "\"";
  }

  void Field(const char* key, uint64_t v) {
    body_ += ", \"" + std::string(key) + "\": " + std::to_string(v);
  }

  void Field(const char* key, double v) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.10g", v);
    body_ += ", \"" + std::string(key) + "\": " + buf;
  }

  void Field(const char* key, const std::string& v) {
    body_ += ", \"" + std::string(key) + "\": \"" + Escape(v) + "\"";
  }

  /// Add the standard per-run metrics of one measured cell.
  void AddRunRow(const std::string& workload, const std::string& policy,
                 const RunResult& r, double wall_clock_sec) {
    BeginRow(workload, policy);
    Field("txns", r.txns);
    Field("primary_txns", r.primary_txns);
    Field("tpm", r.Tpm());
    Field("tpmc", r.TpmC());
    Field("txns_per_sec",
          r.duration ? static_cast<double>(r.txns) * 1e9 /
                           static_cast<double>(r.duration)
                     : 0.0);
    Field("makespan_ns", static_cast<uint64_t>(r.duration));
    Field("checkpoints", r.checkpoints);
    Field("hit_pct", 100.0 * r.cache_stats.HitRate());
    Field("db_utilization", r.db_utilization);
    Field("flash_utilization", r.flash_utilization);
    Field("flash_seq_write_pct",
          r.flash_stats.write_reqs
              ? 100.0 * static_cast<double>(r.flash_stats.seq_write_reqs) /
                    static_cast<double>(r.flash_stats.write_reqs)
              : 0.0);
    Field("db_seq_write_pct",
          r.db_stats.write_reqs
              ? 100.0 * static_cast<double>(r.db_stats.seq_write_reqs) /
                    static_cast<double>(r.db_stats.write_reqs)
              : 0.0);
    // Flash write volume and the page-differential breakdown: how many
    // refreshes traveled as packed delta records instead of full 4 KB
    // frames, and what the device actually saw.
    Field("flash_pages_written", r.flash_stats.pages_written);
    Field("flash_bytes_written", r.flash_stats.pages_written * kPageSize);
    Field("delta_records", r.cache_stats.delta_records);
    Field("delta_record_bytes", r.cache_stats.delta_record_bytes);
    Field("delta_block_writes", r.cache_stats.delta_block_writes);
    Field("delta_consolidations", r.cache_stats.delta_consolidations);
    Field("delta_vs_full_ratio",
          r.cache_stats.delta_records + r.cache_stats.flash_writes
              ? static_cast<double>(r.cache_stats.delta_records) /
                    static_cast<double>(r.cache_stats.delta_records +
                                        r.cache_stats.flash_writes)
              : 0.0);
    Field("wall_clock_sec", wall_clock_sec);
  }

  /// Close the current row. (Kept explicit so callers may append extra
  /// fields after AddRunRow.)
  void EndRow() { body_ += "}"; }

  /// Raw-JSON field: `raw` is spliced into the row verbatim (for arrays /
  /// nested objects the typed Field overloads cannot express).
  void FieldRaw(const char* key, const std::string& raw) {
    body_ += ", \"" + std::string(key) + "\": " + raw;
  }

  /// Append a top-level block after "rows": `raw_json` must be one valid
  /// JSON value. Comparison tooling (bench/diff_trajectory.py) only reads
  /// "rows" and "flags", so extra blocks never affect trajectory diffs.
  void AddTopLevelBlock(const char* key, const std::string& raw_json) {
    extra_ += ",\n  \"" + std::string(key) + "\": " + raw_json;
  }

  /// Write BENCH_<bench>.json to the working directory; false on I/O error.
  bool WriteFile() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    FILE* f = fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::string doc = body_ + "\n  ]" + extra_ + "\n}\n";
    const bool ok = fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (fclose(f) != 0 || !ok) return false;
    fprintf(stderr, "[json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::string body_;
  std::string extra_;
  bool first_row_ = true;
};

/// End-of-run observability output: embed the metrics snapshot as the
/// "obs" block (--stats-json) and write the Chrome trace (--trace=<file>).
/// Call once, after the measured work and before json->WriteFile().
inline void FinalizeObs(const BenchFlags& flags, JsonReporter* json) {
  if (flags.stats_json && json != nullptr) {
    // Merged across threads so sharded cells contribute their workers'
    // registries; identical to the plain snapshot when single-threaded.
    json->AddTopLevelBlock("obs", obs::MetricsRegistry::MergedToJson());
  }
  if (!flags.trace_path.empty()) {
    const Status s =
        obs::Tracer::Instance().WriteChromeTrace(flags.trace_path);
    if (s.ok()) {
      fprintf(stderr, "[obs] wrote %s (%zu spans, %zu dropped)\n",
              flags.trace_path.c_str(), obs::Tracer::Instance().span_count(),
              obs::Tracer::Instance().dropped());
    } else {
      fprintf(stderr, "[obs] trace write failed: %s\n",
              s.ToString().c_str());
    }
  }
}

/// Monotonic wall-clock seconds since `since` (host time, not simulated).
using WallClock = std::chrono::steady_clock;
inline double WallSecondsSince(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

}  // namespace bench
}  // namespace face

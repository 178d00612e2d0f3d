// Shared plumbing for the table/figure bench binaries: print every table to
// stdout and, when invoked with `--csv <dir>`, drop a CSV per table for
// plotting. The Monte-Carlo benches additionally take `--threads=<n>`
// (worker threads for the campaign engine; 0 = auto) and `--json <path>`
// (append one machine-readable record per campaign — name, trials,
// threads, wall-clock ms — as JSON lines, conventionally to
// BENCH_campaign.json, so CI can track campaign throughput over time).
//
// Flag parsing for the campaign benches lives in obs::parse_cli (which
// also owns --metrics=/--trace=); the JSON emission goes through the
// obs:: sinks so the record format is written down exactly once. The line
// format is byte-identical to the original hand-rolled emission (locked
// by tests/obs/sink_golden_test.cpp).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace flopsim::bench {

inline std::string csv_dir(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--csv") return argv[i + 1];
  }
  return {};
}

inline std::string slug(const std::string& title) {
  std::string s;
  for (char c : title) {
    if (isalnum(static_cast<unsigned char>(c))) {
      s += static_cast<char>(tolower(static_cast<unsigned char>(c)));
    } else if (!s.empty() && s.back() != '_') {
      s += '_';
    }
    if (s.size() > 48) break;
  }
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

inline void emit_to(const std::vector<analysis::Table>& tables,
                    const std::string& dir) {
  for (const analysis::Table& t : tables) {
    t.print(std::cout);
    if (!dir.empty()) {
      const std::string path = dir + "/" + slug(t.title()) + ".csv";
      if (!t.write_csv(path)) {
        std::cerr << "warning: could not write " << path << "\n";
      }
    }
  }
}

inline void emit_to(const analysis::Table& t, const std::string& dir) {
  emit_to(std::vector<analysis::Table>{t}, dir);
}

inline void emit(const std::vector<analysis::Table>& tables, int argc,
                 char** argv) {
  emit_to(tables, csv_dir(argc, argv));
}

inline void emit(const analysis::Table& t, int argc, char** argv) {
  emit(std::vector<analysis::Table>{t}, argc, argv);
}

/// One timed fault campaign, as recorded in BENCH_campaign.json.
struct CampaignRecord {
  std::string name;
  long trials = 0;
  int threads = 0;      ///< requested worker threads (0 = auto)
  double wall_ms = 0.0;
  /// Evaluation backend the campaign ran under ("interpreted" or
  /// "compiled"); empty = unspecified, and the JSON field is omitted so
  /// records from before the backend existed stay byte-identical.
  std::string backend;
  /// Trials the campaign dropped short of its configured count (fault-site
  /// draw exhaustion). 0 = full campaign, and the JSON field is omitted so
  /// existing records stay byte-identical.
  long dropped = 0;
};

/// Collects CampaignRecords and appends them as JSON lines. A bench
/// creates one journal, wraps its campaigns in time(), and calls write()
/// once at exit with the `--json` path (no-op when the flag is absent).
class CampaignJournal {
 public:
  explicit CampaignJournal(int threads, std::string backend = {})
      : threads_(threads), backend_(std::move(backend)) {}

  /// Run `fn` (a callable returning the campaign result), time it, and
  /// file the record under `name`/`trials`. Under `--trace=` the whole
  /// campaign also shows up as one "journal" span.
  template <typename Fn>
  auto time(const std::string& name, long trials, Fn&& fn) {
    return time(name, trials, backend_, std::forward<Fn>(fn));
  }

  /// Same, with a per-record backend override (the backend-throughput
  /// comparison runs one campaign per backend under a single journal).
  template <typename Fn>
  auto time(const std::string& name, long trials, const std::string& backend,
            Fn&& fn) {
    auto span = obs::Tracer::global().span(name, "journal",
                                           {{"trials", trials}});
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn();
    const auto t1 = std::chrono::steady_clock::now();
    span.end();
    CampaignRecord rec;
    rec.name = name;
    rec.trials = trials;
    rec.threads = threads_;
    rec.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    rec.backend = backend;
    records_.push_back(rec);
    return result;
  }

  /// File a pre-built record (tests use this to pin wall_ms).
  void add(CampaignRecord rec) { records_.push_back(std::move(rec)); }

  /// Annotate the most recent record with its dropped-trial count (the
  /// result is only known after time() returns). No-op for 0 or when no
  /// record has been filed yet.
  void note_dropped(long dropped) {
    if (dropped > 0 && !records_.empty()) records_.back().dropped = dropped;
  }

  const std::vector<CampaignRecord>& records() const { return records_; }
  int threads() const { return threads_; }

  /// Append every record to `path` as one JSON object per line. Returns
  /// false (with a warning on stderr) when the file cannot be opened;
  /// silently does nothing when `path` is empty.
  bool write(const std::string& path) const {
    obs::JsonlSink sink(path);  // append: benches share one file per CI job
    if (!sink.ok()) {
      std::cerr << "warning: could not write " << path << "\n";
      return false;
    }
    for (const CampaignRecord& r : records_) {
      obs::JsonObject o;
      o.field("campaign", r.name)
          .field("trials", r.trials)
          .field("threads", r.threads)
          .field("wall_ms", r.wall_ms);
      if (!r.backend.empty()) o.field("backend", r.backend);
      if (r.dropped > 0) o.field("dropped", r.dropped);
      sink.write(o);
    }
    return sink.good();
  }

 private:
  int threads_;
  std::string backend_;  ///< default for time(); empty = field omitted
  std::vector<CampaignRecord> records_;
};

}  // namespace flopsim::bench

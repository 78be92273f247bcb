// The deployment pipeline of netqre-monitor, driven through the public
// library calls in the order the daemon makes them:
//
//   net::MappedPcapReader::fill
//     -> core::QuerySet::on_batch / core::ParallelQuerySet::feed
//     -> snapshot_all                      (once per trace-second: a round)
//     -> store::SeriesStore::ingest
//     -> store::render_push / store::apply_push   (edge -> in-process parent)
//     -> health::HealthEngine::evaluate
//     -> obs Registry scrape (to_prometheus), SeriesStore::query range reads
//
// Rounds run on trace time (one per second of packet timestamps), so the
// results and the store-rule transition log depend only on the packets
// offered, never on how fast the machine ran.  Every public call is wrapped
// in a span when tracing is on (spans.hpp); with tracing off the wrappers
// cost one branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/queryset.hpp"
#include "net/pcap.hpp"
#include "obs/health.hpp"
#include "spans.hpp"
#include "store/series_store.hpp"

namespace perfbench {

using namespace netqre;

using Round = std::vector<std::pair<std::string, std::vector<core::ResultSample>>>;

int64_t cpu_ns();           // process CPU time, all threads
double rss_peak_mb();       // process max RSS

// Quantile by linear interpolation between closest ranks; 0 when empty.
double quantile(std::vector<double> v, double q);

// A latency sample stamped with the steady-clock time it completed.
struct Timed {
  int64_t at_ns = 0;
  double value = 0;
};

// The median, over one-second windows from `t0_ns`, of each window's
// q-quantile: a burst of outside interference moves one window, not the
// figure.  Empty windows are skipped.
double windowed_quantile(const std::vector<Timed>& samples, int64_t t0_ns,
                         double q);
std::vector<double> values_of(const std::vector<Timed>& samples);

// One query of a workload: a Table-1 entry point loaded under `name`, or an
// inline source (tenant churn).
struct QuerySpec {
  std::string name;
  std::string file;    // under queries/; empty for inline sources
  std::string main;
  std::string source;  // inline source text (when file is empty)
  size_t quota = 0;    // per-query state quota, bytes; 0 = unlimited
};

struct CompiledSpec {
  QuerySpec spec;
  core::CompiledQuery query;
  double compile_ms = 0;
};

// lint -> compile -> certify, the chain the daemon's load path runs.
// Throws on a query that does not compile.
CompiledSpec compile_query(const QuerySpec& spec, const std::string& queries_dir,
                           Spans& spans);

std::string read_file(const std::string& path);

// Store + health + stream + scrape: everything a round does after the
// snapshot.  One thread at a time calls round(); for a sharded set that is
// the worker finishing the snapshot visit, so its spans go to a recorder
// of their own (the span recorder is single-threaded).
struct MonitorConfig {
  store::StoreConfig store;
  std::vector<health::HealthRule> rules;
  size_t range_reads_per_round = 0;  // SeriesStore::query calls per round
  std::string source = "edge-1";
};

class Monitor {
 public:
  Monitor(MonitorConfig cfg, Spans& spans);
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Runs one round over `snap`, stamped `t_ns` (trace time).  `due_ns` is
  // the steady-clock due time of the round's last packet; alert latency
  // is measured from it.
  void round(uint64_t t_ns, int64_t due_ns, const Round& snap, uint64_t id);

  // The store-rule transitions, one line per transition without sequence
  // numbers (metric-rule transitions read process-wide telemetry and are
  // not reproducible, so they are left out).
  std::string store_rule_log() const;

  std::atomic<bool> recording{true};  // false during the untimed warm-up
  uint64_t rounds = 0;
  uint64_t operations = 0;  // pushes applied + scrapes
  uint64_t failures = 0;    // apply_push rejects
  std::vector<Timed> alert_ms;        // per round: due -> evaluate returned
  std::vector<double> hook_ms;        // per transition: due -> hook
  std::vector<double> ingest_us, evaluate_us, render_us, apply_us,
      scrape_us, query_us;
  uint64_t samples = 0, push_bytes = 0, scrape_bytes = 0;

  store::SeriesStore& store() { return *store_; }
  health::HealthEngine& health() { return *health_; }

 private:
  MonitorConfig cfg_;
  Spans& spans_;
  std::unique_ptr<store::SeriesStore> store_;
  std::unique_ptr<store::SeriesStore> parent_;
  std::unique_ptr<health::HealthEngine> health_;
  std::vector<std::string> store_rules_;
  std::vector<std::string> contexts_;
  size_t next_read_ = 0;
  int64_t round_due_ns_ = 0;
  std::vector<store::AlertLine> pending_alerts_;
};

// Replay schedule of one run.
struct RunConfig {
  std::string pcap;
  size_t batch = 1024;
  double seconds = 10;
  bool open_loop = false;
  double offered_pps = 0;  // open loop only
  bool warmup_pass = false;  // closed loop: first pass untimed
};

// One run of the pipeline over a pcap replayed in passes.  Each pass
// shifts packet timestamps by the capture's span, so trace time keeps
// moving forward across passes.
class Pipeline {
 public:
  Pipeline(Monitor& mon, Spans& spans, core::QuerySet* set,
           core::ParallelQuerySet* parallel);

  void run(const RunConfig& cfg);

  // Workload hooks (all optional).
  std::function<void(uint64_t pass)> on_pass_end;  // after a complete pass
  std::function<void(uint64_t batch)> on_batch_end;

  // True while a sharded round's snapshot visit or round work is running.
  [[nodiscard]] bool round_in_flight() const { return in_flight_.load(); }

  // Synchronous snapshot of every loaded query (for parallel sets: waits
  // for the asynchronous visit).
  void snapshot(Round& out, uint64_t id);

  // Timed-phase results.
  uint64_t packets = 0;      // packets offered in the timed phase
  uint64_t decoded = 0;      // packets the reader produced (timed phase)
  uint64_t passes = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns_used = 0;
  std::vector<Timed> batch_us;   // per batch: due(last packet) -> done
  std::vector<double> late_ms;   // generator lateness, see README
  std::vector<double> snapshot_us;  // per round
  std::vector<double> window_pps;     // per window of whole passes >= 1 s
  std::vector<double> window_cpu_ns;  // process CPU per packet, per window
  uint64_t skipped_rounds = 0;      // sharded: a round was still in flight
  int64_t run_t0 = 0;            // steady ns at timed-phase start

 private:
  static constexpr int64_t kWindowNs = 1'000'000'000;

  void consume(net::PacketBatch& batch, uint64_t id);
  void split_consume(net::PacketBatch& batch, size_t n, uint64_t id);
  void do_round(uint64_t t_ns, int64_t due_ns);

  Monitor& mon_;
  Spans& spans_;
  core::QuerySet* set_;
  core::ParallelQuerySet* parallel_;
  net::PacketBatch tail_;
  uint64_t round_id_ = 0;
  std::atomic<bool> in_flight_{false};
};

}  // namespace perfbench

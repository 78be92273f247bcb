#include "pipeline.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "lang/analysis.hpp"
#include "lang/certify.hpp"
#include "lang/lower.hpp"
#include "obs/metrics.hpp"
#include "store/stream.hpp"

namespace perfbench {

int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<Timed>& samples, int64_t t0_ns,
                         double q) {
  std::map<int64_t, std::vector<double>> windows;
  for (const Timed& s : samples) {
    windows[(s.at_ns - t0_ns) / 1'000'000'000].push_back(s.value);
  }
  std::vector<double> per_window;
  for (auto& [w, v] : windows) per_window.push_back(quantile(std::move(v), q));
  return quantile(std::move(per_window), 0.5);
}

std::vector<double> values_of(const std::vector<Timed>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Timed& s : samples) out.push_back(s.value);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

CompiledSpec compile_query(const QuerySpec& spec, const std::string& queries_dir,
                           Spans& spans) {
  SpanScope span(spans, "lang.compile", 0);
  const int64_t t0 = now_ns();
  const std::string text =
      spec.file.empty() ? spec.source : read_file(queries_dir + "/" + spec.file);
  const auto diags = lang::analyze_source(text);
  if (lang::has_errors(diags)) {
    throw std::runtime_error("lint failed for " + spec.name);
  }
  lang::CompiledProgram prog = lang::compile_source(text, spec.main);
  const lang::ResourceCertificate cert = lang::certify(prog, spec.main);
  (void)cert;
  CompiledSpec out{spec, std::move(prog.query), 0};
  out.compile_ms = static_cast<double>(now_ns() - t0) / 1e6;
  return out;
}

// ----------------------------------------------------------------- Monitor

Monitor::Monitor(MonitorConfig cfg, Spans& spans)
    : cfg_(std::move(cfg)),
      spans_(spans),
      store_(std::make_unique<store::SeriesStore>(cfg_.store)),
      parent_(std::make_unique<store::SeriesStore>(cfg_.store)) {
  health::HealthConfig hcfg;
  hcfg.max_transitions = 1'000'000;  // keep the whole log for the check
  health_ = std::make_unique<health::HealthEngine>(store_.get(), nullptr, hcfg);
  for (const auto& r : cfg_.rules) {
    if (r.source == health::HealthRule::Source::Store) {
      store_rules_.push_back(r.name);
    }
  }
  health_->add_rules(cfg_.rules);
  health_->set_transition_hook([this](const health::AlertTransition& tr) {
    if (recording) {
      hook_ms.push_back(static_cast<double>(now_ns() - round_due_ns_) / 1e6);
    }
    store::AlertLine line;
    line.t_ns = tr.t_ns;
    line.seq = tr.seq;
    line.rule = tr.rule;
    line.from = health::alert_status_name(tr.from);
    line.to = health::alert_status_name(tr.to);
    line.value = tr.value;
    line.key = tr.key;
    pending_alerts_.push_back(std::move(line));
  });
}

void Monitor::round(uint64_t t_ns, int64_t due_ns, const Round& snap,
                    uint64_t id) {
  round_due_ns_ = due_ns;
  std::vector<store::Sample> samples;
  for (const auto& [query, results] : snap) {
    samples.clear();
    samples.reserve(results.size());
    for (const auto& r : results) samples.push_back({r.key, r.value});
    int64_t t = now_ns();
    {
      SpanScope span(spans_, "store.ingest", id);
      store_->ingest(store_->context(query), t_ns, samples);
    }
    int64_t t2 = now_ns();
    std::string body;
    {
      SpanScope span(spans_, "stream.render", id);
      body = store::render_push(cfg_.source, query, t_ns, samples);
    }
    int64_t t3 = now_ns();
    store::PushResult pushed;
    {
      SpanScope span(spans_, "stream.apply", id);
      pushed = store::apply_push(*parent_, body);
    }
    const int64_t t4 = now_ns();
    ++operations;
    if (!pushed.error.empty() || pushed.rounds != 1) ++failures;
    if (recording) {
      ingest_us.push_back(static_cast<double>(t2 - t) / 1e3);
      render_us.push_back(static_cast<double>(t3 - t2) / 1e3);
      apply_us.push_back(static_cast<double>(t4 - t3) / 1e3);
      this->samples += samples.size();
      push_bytes += body.size();
    }
    if (std::find(contexts_.begin(), contexts_.end(), query) ==
        contexts_.end()) {
      contexts_.push_back(query);
    }
  }
  int64_t t = now_ns();
  {
    SpanScope span(spans_, "health.evaluate", id);
    health_->evaluate(t_ns);
  }
  const int64_t evaluated = now_ns();
  if (recording) {
    evaluate_us.push_back(static_cast<double>(evaluated - t) / 1e3);
    alert_ms.push_back({evaluated, static_cast<double>(evaluated - due_ns) / 1e6});
  }
  // Alert transitions stream to the parent like the daemon's hook does.
  for (const auto& line : pending_alerts_) {
    SpanScope span(spans_, "stream.alert", id);
    const std::string body = store::render_alert(cfg_.source, line);
    const store::PushResult pushed = store::apply_push(*parent_, body);
    ++operations;
    if (!pushed.error.empty() || pushed.alerts != 1) ++failures;
  }
  pending_alerts_.clear();

  t = now_ns();
  std::string scrape;
  {
    SpanScope span(spans_, "obs.scrape", id);
    scrape = obs::registry().snapshot().to_prometheus();
  }
  ++operations;
  if (recording) {
    scrape_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    scrape_bytes += scrape.size();
  }

  for (size_t i = 0; i < cfg_.range_reads_per_round && !contexts_.empty();
       ++i) {
    const std::string& ctx = contexts_[next_read_++ % contexts_.size()];
    store::RangeQuery q;
    q.after_s = -60;
    q.points = 60;
    store::RangeResult res;
    t = now_ns();
    {
      SpanScope span(spans_, "store.query", id);
      store_->query(ctx, q, res);
    }
    if (recording) query_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
  }
  if (recording) ++rounds;
}

std::string Monitor::store_rule_log() const {
  std::istringstream in(health_->log_text());
  std::string line, out;
  while (std::getline(in, line)) {
    // "#<seq> <rule>[<key>] <FROM>-><TO> value=<v>"
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string rest = line.substr(sp + 1);
    const std::string rule = rest.substr(0, rest.find('['));
    if (std::find(store_rules_.begin(), store_rules_.end(), rule) !=
        store_rules_.end()) {
      out += rest;
      out += '\n';
    }
  }
  return out;
}

// ---------------------------------------------------------------- Pipeline

Pipeline::Pipeline(Monitor& mon, Spans& spans, core::QuerySet* set,
                   core::ParallelQuerySet* parallel)
    : mon_(mon), spans_(spans), set_(set), parallel_(parallel) {}

void Pipeline::snapshot(Round& out, uint64_t id) {
  SpanScope span(spans_, "queryset.snapshot", id);
  out.clear();
  if (set_) {
    set_->snapshot_all(out);
    return;
  }
  std::promise<Round> done;
  auto fut = done.get_future();
  parallel_->snapshot_all_async(
      [&done](Round r) { done.set_value(std::move(r)); });
  out = fut.get();
}

void Pipeline::consume(net::PacketBatch& batch, uint64_t id) {
  if (batch.empty()) return;
  if (set_) {
    SpanScope span(spans_, "queryset.on_batch", id);
    set_->on_batch(batch.packets());
  } else {
    SpanScope span(spans_, "parallel.feed", id);
    parallel_->feed(std::move(batch));
  }
  batch.clear();
}

// Processes the first `n` packets of `batch` and leaves the rest in it.
void Pipeline::split_consume(net::PacketBatch& batch, size_t n, uint64_t id) {
  tail_.clear();
  for (size_t k = n; k < batch.size(); ++k) {
    tail_.next_slot() = std::move(batch[k]);
  }
  while (batch.size() > n) batch.drop_last();
  consume(batch, id);
  std::swap(batch, tail_);
}

void Pipeline::do_round(uint64_t t_ns, int64_t due_ns) {
  const uint64_t id = round_id_++;
  if (set_) {
    Round snap;
    const int64_t t = now_ns();
    snapshot(snap, id);
    if (mon_.recording) {
      snapshot_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    }
    mon_.round(t_ns, due_ns, snap, id);
    return;
  }
  // Sharded: like the daemon, the round runs on the worker that completes
  // the snapshot visit, while the dispatcher keeps feeding; a round still
  // in flight makes this one skip.
  if (in_flight_.exchange(true)) {
    ++skipped_rounds;
    return;
  }
  const int64_t asked = now_ns();
  parallel_->snapshot_all_async([this, t_ns, due_ns, id, asked](Round snap) {
    if (mon_.recording) {
      snapshot_us.push_back(static_cast<double>(now_ns() - asked) / 1e3);
    }
    mon_.round(t_ns, due_ns, snap, id);
    in_flight_.store(false);
  });
}

void Pipeline::run(const RunConfig& cfg) {
  net::PacketBatch batch(cfg.batch);
  int64_t round_sec = INT64_MIN;
  double offset = 0;  // added to every timestamp of the current pass
  double span_s = 0;  // trace-time span of one pass
  uint64_t batch_no = 0;
  const uint64_t total_offer =
      cfg.open_loop
          ? static_cast<uint64_t>(cfg.offered_pps * cfg.seconds) / cfg.batch *
                cfg.batch
          : 0;
  const double ns_per_pkt = cfg.open_loop ? 1e9 / cfg.offered_pps : 0;
  bool timed = !cfg.warmup_pass;
  mon_.recording = timed;
  int64_t cpu0 = cpu_ns();
  run_t0 = now_ns();
  int32_t root = spans_.begin("bench.run", 0);
  uint64_t offered = 0;  // packets consumed in the timed phase
  int64_t prev_done = run_t0;
  bool stop = false;
  // Windows of whole passes lasting at least a second: every window of a
  // closed loop does the same kind of work (throughput and CPU per packet
  // are read from the best one).
  int64_t win_t0 = run_t0, win_cpu0 = cpu0;
  uint64_t win_pkts0 = 0;
  // Steady-clock due time of the offered packet with index `i`.
  const auto due_of = [&](uint64_t i) {
    return run_t0 + static_cast<int64_t>(static_cast<double>(i) * ns_per_pkt);
  };

  for (uint64_t pass = 0; !stop; ++pass) {
    std::unique_ptr<net::MappedPcapReader> reader;
    {
      SpanScope span(spans_, "net.open", pass);
      reader = std::make_unique<net::MappedPcapReader>(cfg.pcap);
    }
    double first_ts = -1, last_ts = 0;
    uint64_t pass_packets = 0;
    bool complete = false;  // the reader ran dry (not cut by the clock)
    while (true) {
      // Due time of the batch's last packet: on the open-loop schedule, or
      // "now" in a closed loop (the previous call has returned).
      size_t want = cfg.batch;
      int64_t due = now_ns();
      if (cfg.open_loop) {
        if (offered >= total_offer) {
          stop = true;
          break;
        }
        want = std::min<uint64_t>(cfg.batch, total_offer - offered);
        due = due_of(offered + want - 1);
        if (due > now_ns()) {
          SpanScope span(spans_, "idle.wait", batch_no);
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due)));
          late_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
        }
      } else if (timed) {
        late_ms.push_back(static_cast<double>(due - prev_done) / 1e6);
      }
      size_t n = 0;
      {
        SpanScope span(spans_, "net.fill", batch_no);
        n = reader->fill(batch, want);
      }
      if (n == 0) {
        complete = true;
        break;
      }
      for (auto& p : batch.packets()) p.ts += offset;
      if (first_ts < 0) first_ts = batch[0].ts - offset;
      last_ts = batch[n - 1].ts - offset;
      pass_packets += n;
      if (timed) decoded += n;
      if (cfg.open_loop) due = due_of(offered + n - 1);
      // Cut the batch at every trace-second boundary: a round samples
      // exactly the packets before the boundary.
      size_t base = 0;  // packets of this batch already consumed
      size_t j = 0;
      while (j < batch.size()) {
        const auto sec = static_cast<int64_t>(std::floor(batch[j].ts));
        if (round_sec != INT64_MIN && sec != round_sec) {
          // The round's last packet is the one before index j.
          const int64_t last_due =
              cfg.open_loop && offered + base + j > 0
                  ? due_of(offered + base + j - 1)
                  : due;
          split_consume(batch, j, batch_no);
          base += j;
          j = 0;
          do_round(static_cast<uint64_t>(round_sec + 1) * 1'000'000'000ull,
                   last_due);
        }
        round_sec = sec;
        ++j;
      }
      consume(batch, batch_no);
      if (on_batch_end) on_batch_end(batch_no);
      const int64_t done = now_ns();
      prev_done = done;
      ++batch_no;
      if (timed) {
        batch_us.push_back({done, static_cast<double>(done - due) / 1e3});
        offered += n;
        if (!cfg.open_loop &&
            done - run_t0 >= static_cast<int64_t>(cfg.seconds * 1e9)) {
          stop = true;
          break;
        }
      }
    }
    if (span_s == 0 && pass_packets > 0) {
      // Passes follow each other back to back in trace time: the next
      // starts one mean inter-packet gap after this one's last packet.
      const double gap =
          (last_ts - first_ts) / static_cast<double>(pass_packets);
      span_s = last_ts - first_ts + std::max(gap, 1e-6);
    }
    offset += span_s;
    if (complete && timed) {
      const int64_t now = now_ns();
      if (now - win_t0 >= kWindowNs) {
        const int64_t c = cpu_ns();
        const double pk = static_cast<double>(offered - win_pkts0);
        window_pps.push_back(pk * 1e9 / static_cast<double>(now - win_t0));
        window_cpu_ns.push_back(static_cast<double>(c - win_cpu0) / pk);
        win_t0 = now;
        win_cpu0 = c;
        win_pkts0 = offered;
      }
    }
    if (complete && on_pass_end) on_pass_end(pass);
    if (!timed) {
      // Warm-up done: start the clock.
      spans_.end(root);
      spans_.clear();
      timed = true;
      mon_.recording = true;
      cpu0 = cpu_ns();
      run_t0 = now_ns();
      prev_done = run_t0;
      win_t0 = run_t0;
      win_cpu0 = cpu0;
      root = spans_.begin("bench.run", 0);
    } else {
      ++passes;
    }
  }
  if (parallel_) {
    // Packets still queued at the shards are part of the timed work.
    SpanScope span(spans_, "parallel.finish", batch_no);
    parallel_->finish();
  }
  wall_ns = now_ns() - run_t0;
  cpu_ns_used = cpu_ns() - cpu0;
  packets = offered;
  spans_.end(root);
}

}  // namespace perfbench

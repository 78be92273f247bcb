#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "net/flow.hpp"
#include "net/pcap.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "trafficgen/trafficgen.hpp"

namespace perfbench {
namespace {

// ------------------------------------------------------------ parameters
//
// Every fixed parameter of every workload lives here (README.md lists
// them).  `scale` < 1 shrinks the traces and the open-loop rate for the
// smoke test; the timed run length comes from --seconds.

// backbone: full-frame backbone capture, the 8 compiled-tier Table-1
// queries, closed loop.
constexpr uint64_t kBackbonePackets = 150'000;
constexpr uint32_t kBackboneFlows = 20'000;
constexpr double kBackboneTracePps = 620'000;  // the paper's trace rate
constexpr uint32_t kBackboneStoreKeys = 32'768;  // holds every flow key

// attack-mix: header-only background plus recurring attack episodes, open
// loop at a fixed offered rate.
constexpr double kAttackPassSeconds = 30;      // trace time of one pass
constexpr double kAttackBackgroundPps = 1'100; // trace time
constexpr uint32_t kAttackBackgroundFlows = 150;
// Flat popularity: with skew 1.1 over a few hundred flows the top few
// flows carry most packets, and whether they are TCP or UDP would swing
// the interpreted cost from seed to seed.
constexpr double kAttackBackgroundSkew = 0.5;
constexpr uint32_t kAttackStoreKeys = 32'768;
constexpr double kAttackEpisodeEvery = 1;      // seconds of trace time
constexpr double kAttackOfferedPps = 4'000;    // wall clock
constexpr size_t kAttackBatch = 128;

// tenant-churn: 64 tenants on 2 workers over a backbone capture.  Runnable
// with --workload tenant-churn but not in BENCHMARK.json: its throughput,
// batch p99 and RSS swing by more than the bounds from run to run
// (README.md "Workloads").
constexpr uint64_t kChurnPackets = 100'000;
constexpr uint32_t kChurnFlows = 1'100;  // just over the 1024-key store budget
constexpr double kChurnTracePps = 40'000;
constexpr int kChurnWorkers = 2;
constexpr int kChurnTenants = 64;
constexpr uint64_t kChurnPeriodBatches = 64;   // one unload+load per period
constexpr size_t kChurnSmallQuota = 64 * 1024; // every 16th tenant
constexpr size_t kChurnRangeReads = 8;         // per round

// voip-usage: SIP calls only, fresh state every pass.
constexpr uint32_t kVoipUsers = 5;
constexpr uint32_t kVoipCalls = 10;
constexpr uint32_t kVoipMediaPerCall = 50;
constexpr double kVoipCallSpacing = 1.5;  // trace seconds between calls
constexpr size_t kVoipBatch = 16;  // ~34 batches per pass

// Set-up is repeated at least this often and for at least this long; the
// median is reported.
constexpr int kSetupRepeats = 21;
constexpr int64_t kSetupMinNs = 300'000'000;
// Alert transitions a full-size attack-mix run must commit.
constexpr uint64_t kMinTransitions = 200;

const std::vector<std::string> kNames = {"backbone", "attack-mix",
                                         "tenant-churn", "voip-usage"};

std::string pcap_path(const Options& o) {
  return o.out_dir + "/" + o.workload + ".pcap";
}
std::string expect_path(const Options& o) {
  return o.out_dir + "/" + o.workload + ".expect";
}
uint64_t scaled(uint64_t n, const Options& o) {
  return std::max<uint64_t>(
      1000, static_cast<uint64_t>(static_cast<double>(n) * o.scale));
}

// ------------------------------------------------------------ generation

// Writes packets as captured frames.  `full` pads each frame to its wire
// length (a tap stores the whole frame); otherwise only headers and any
// real payload are captured (small frames).
void write_pcap(const std::string& path, std::span<const net::Packet> pkts,
                bool full) {
  net::PcapWriter writer(path);
  net::Packet frame;
  for (const net::Packet& p : pkts) {
    if (full && p.payload.empty()) {
      frame = p;
      const uint32_t headers = frame.proto == net::Proto::Udp ? 42u : 54u;
      if (frame.wire_len > headers) {
        frame.payload.assign(frame.wire_len - headers, 'x');
      }
      writer.write_packet(frame);
    } else {
      writer.write_packet(p);
    }
  }
  writer.flush();
}

std::vector<net::Packet> backbone_packets(uint64_t n, uint32_t flows,
                                          double pps, uint64_t seed,
                                          double zipf_skew = 1.1) {
  trafficgen::BackboneConfig cfg;
  cfg.n_packets = n;
  cfg.n_flows = flows;
  cfg.zipf_skew = zipf_skew;
  cfg.pps = pps;
  cfg.seed = seed;
  return trafficgen::backbone_trace(cfg);
}

// Rescales an episode's timestamps into [start, start + len].
void place(std::vector<net::Packet>& ep, double start, double len,
           std::vector<net::Packet>& out) {
  if (ep.empty()) return;
  double lo = ep.front().ts, hi = ep.front().ts;
  for (const auto& p : ep) {
    lo = std::min(lo, p.ts);
    hi = std::max(hi, p.ts);
  }
  const double k = hi > lo ? len / (hi - lo) : 0;
  for (auto& p : ep) {
    p.ts = start + (p.ts - lo) * k;
    out.push_back(std::move(p));
  }
}

std::vector<net::Packet> attack_packets(const Options& o) {
  const double pass_s = kAttackPassSeconds * std::max(o.scale, 0.1);
  std::vector<net::Packet> out = backbone_packets(
      static_cast<uint64_t>(pass_s * kAttackBackgroundPps),
      kAttackBackgroundFlows, kAttackBackgroundPps, o.seed,
      kAttackBackgroundSkew);
  const double t0 = out.front().ts;
  // Episodes cycle through the attack generators, each with its own seed.
  int kind = 0;
  for (double t = 0.5; t + 1 < pass_s; t += kAttackEpisodeEvery, ++kind) {
    const uint64_t s = o.seed * 1000 + static_cast<uint64_t>(kind);
    std::vector<net::Packet> ep;
    switch (kind % 5) {
      case 0: {
        trafficgen::SynFloodConfig c;
        c.benign_handshakes = 5;
        c.attack_handshakes = 40;
        c.seed = s;
        ep = trafficgen::syn_flood_trace(c);
        break;
      }
      case 1: {
        trafficgen::SlowlorisConfig c;
        c.normal_conns = 3;
        c.slow_conns = 4;
        c.duration = 1;
        c.seed = s;
        ep = trafficgen::slowloris_trace(c);
        break;
      }
      case 2: {
        trafficgen::DnsConfig c;
        c.normal_queries = 15;
        c.tunnel_queries = 8;
        c.amplification_pairs = 8;
        c.seed = s;
        ep = trafficgen::dns_trace(c);
        break;
      }
      case 3: {
        trafficgen::SmtpConfig c;
        c.n_mails = 5;
        c.keyword_mails = 2;
        c.seed = s;
        ep = trafficgen::smtp_trace(c);
        break;
      }
      default: {
        trafficgen::TlsRenegConfig c;
        c.normal_conns = 2;
        c.attacker_renegs = 10;
        c.seed = s;
        ep = trafficgen::tls_reneg_trace(c);
        break;
      }
    }
    place(ep, t0 + t, 0.8, out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.ts < b.ts;
                   });
  return out;
}

// Per-user media bytes and the call count, read back from the SIP trace:
// the media of a call is every non-SIP packet between its ACK and its BYE,
// owned by the user in the INVITE's From header.
void write_voip_expectations(const std::string& path,
                             std::span<const net::Packet> pkts) {
  std::map<std::string, uint64_t> usage;
  uint64_t calls = 0;
  std::string user;
  for (const auto& p : pkts) {
    const bool sip = p.src_port == 5060 || p.dst_port == 5060;
    if (sip && p.payload.rfind("INVITE", 0) == 0) {
      ++calls;
      const size_t at = p.payload.find("\r\nFrom: ");
      const size_t end = p.payload.find("\r\n", at + 2);
      user = p.payload.substr(at + 8, end - at - 8);
      usage.emplace(user, 0);
    } else if (!sip && !user.empty()) {
      usage[user] += p.wire_len;
    }
  }
  std::ofstream out(path);
  out << "calls " << calls << "\n";
  for (const auto& [u, bytes] : usage) out << "user " << bytes << " " << u << "\n";
}

// ------------------------------------------------------------ queries

std::vector<QuerySpec> table1_specs(const std::vector<std::string>& mains) {
  // file, main of every Table-1 entry point this benchmark loads.
  static const std::vector<std::pair<std::string, std::string>> kTable1 = {
      {"heavy_hitter.nqre", "hh"},
      {"super_spreader.nqre", "ss"},
      {"entropy.nqre", "src_pkts"},
      {"flow_size_dist.nqre", "flow_pkts"},
      {"traffic_change.nqre", "recent_src_bytes"},
      {"count_traffic.nqre", "total_bytes"},
      {"completed_flows.nqre", "completed_flows"},
      {"syn_flood.nqre", "syn_flood"},
      {"slowloris.nqre", "avg_rate"},
      {"lifetime.nqre", "lifetime"},
      {"new_conns.nqre", "recent_new_conns"},
      {"dup_acks.nqre", "dup_acks"},
      {"voip_count.nqre", "voip_call_count"},
      {"voip_usage.nqre", "usage_per_user"},
      {"email_keywords.nqre", "keyword_pkts"},
      {"dns_tunnel.nqre", "dns_long_queries"},
      {"dns_amplification.nqre", "dns_amp_alert"},
  };
  std::vector<QuerySpec> out;
  for (const auto& m : mains) {
    const auto it = std::find_if(kTable1.begin(), kTable1.end(),
                                 [&](const auto& e) { return e.second == m; });
    if (it == kTable1.end()) throw std::runtime_error("unknown entry " + m);
    // The daemon names a loaded query after its file.
    out.push_back({it->first, it->first, it->second, "", 0});
  }
  return out;
}

const std::vector<std::string> kCompiledTier = {
    "hh",          "ss",           "src_pkts",        "flow_pkts",
    "recent_src_bytes", "total_bytes", "dns_long_queries", "keyword_pkts"};

// A freshly written tenant query for the churn workload: bytes per source
// towards one service port, different for every load.
QuerySpec churn_spec(uint64_t k) {
  static const int kPorts[] = {80, 443, 53, 25, 22, 5060};
  QuerySpec q;
  q.name = "churn-" + std::to_string(k);
  q.main = "port_bytes";
  q.source = "sfun int port_bytes(IP x) = filter(srcip == x, dstport == " +
             std::to_string(kPorts[k % 6]) + ") >> count_size;\n";
  return q;
}

struct Spec {
  std::vector<QuerySpec> queries;
  std::vector<std::string> health_files;
  RunConfig run;
  int workers = 0;
  size_t range_reads = 1;
  bool fresh_state_per_pass = false;
  uint32_t store_keys = 1024;  // per-context key budget (daemon default)
};

Spec make_spec(const Options& o) {
  Spec s;
  s.run.pcap = pcap_path(o);
  s.run.seconds = o.seconds;
  s.health_files = {o.queries_dir + "/self.health"};
  if (o.workload == "backbone") {
    s.queries = table1_specs(kCompiledTier);
    s.run.warmup_pass = true;
    s.store_keys = kBackboneStoreKeys;
  } else if (o.workload == "attack-mix") {
    s.queries = table1_specs(
        {"hh", "ss", "src_pkts", "flow_pkts", "recent_src_bytes",
         "total_bytes", "completed_flows", "syn_flood", "avg_rate",
         "lifetime", "recent_new_conns", "dup_acks", "voip_call_count",
         "keyword_pkts", "dns_long_queries", "dns_amp_alert"});
    // The shipped syn_flood.health reads the "syn_flood.nqre" context,
    // which is the Table-1 syn_flood entry point loaded under its file
    // name, as the daemon names it.
    s.health_files.push_back(o.queries_dir + "/syn_flood.health");
    s.health_files.push_back(o.rules_dir + "/attack-mix.health");
    s.store_keys = kAttackStoreKeys;
    s.run.open_loop = true;
    s.run.offered_pps = kAttackOfferedPps * std::max(o.scale, 0.5);
    s.run.batch = kAttackBatch;
  } else if (o.workload == "tenant-churn") {
    // Mostly compiled: seven copies of the compiled tier plus one
    // interpreted tenant per eight.
    static const std::vector<std::string> kInterp = {
        "completed_flows", "dns_amp_alert", "voip_call_count", "dup_acks"};
    for (int k = 0; k < kChurnTenants; ++k) {
      const std::string main =
          k % 8 == 7 ? kInterp[(k / 8) % kInterp.size()] : kCompiledTier[k % 8];
      QuerySpec q = table1_specs({main}).front();
      q.name += "#" + std::to_string(k);
      if (k % 16 == 0) q.quota = kChurnSmallQuota;  // hh copies: evict
      s.queries.push_back(q);
    }
    s.workers = kChurnWorkers;
    s.range_reads = kChurnRangeReads;
    s.run.warmup_pass = true;
  } else if (o.workload == "voip-usage") {
    s.queries = table1_specs({"voip_call_count", "usage_per_user"});
    s.fresh_state_per_pass = true;
    s.run.batch = kVoipBatch;
  } else {
    throw std::runtime_error("unknown workload " + o.workload);
  }
  return s;
}

// ------------------------------------------------------------ replays

size_t partition(const net::Packet& p) {
  return static_cast<size_t>(net::mix64(p.src_ip));
}

// Replays the first `max_packets` packets of `pcap` through a fresh
// QuerySet holding `qs` (all at `tier`) and returns its snapshot.
// `ns` receives the on_batch time.
Round replay(const std::vector<const CompiledSpec*>& qs,
             const std::string& pcap, uint64_t max_packets,
             core::EngineTier tier, int64_t* ns, Spans& spans,
             const char* span_name) {
  core::QuerySet set;
  for (const CompiledSpec* q : qs) {
    core::QuerySet::LoadOptions lo;
    lo.tier = tier;
    set.load(q->spec.name, q->query, lo);
  }
  net::MappedPcapReader reader(pcap);
  net::PacketBatch batch(1024);
  uint64_t done = 0;
  int64_t busy = 0;
  while (done < max_packets &&
         reader.fill(batch, std::min<uint64_t>(1024, max_packets - done)) > 0) {
    SpanScope span(spans, span_name, done);
    const int64_t t = now_ns();
    set.on_batch(batch.packets());
    busy += now_ns() - t;
    done += batch.size();
  }
  if (ns) *ns = busy;
  Round out;
  set.snapshot_all(out);
  return out;
}

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

// Compares the results of `name` in two snapshots bit for bit.
bool same_results(const Round& a, const Round& b, const std::string& name,
                  std::string* why) {
  const auto find = [&](const Round& r) -> const std::vector<core::ResultSample>* {
    for (const auto& [q, res] : r) {
      if (q == name) return &res;
    }
    return nullptr;
  };
  const auto* ra = find(a);
  const auto* rb = find(b);
  if (!ra || !rb) {
    *why = name + ": missing from a snapshot";
    return false;
  }
  std::map<std::string, uint64_t> ma, mb;
  for (const auto& s : *ra) ma[s.key] = bits(s.value);
  for (const auto& s : *rb) mb[s.key] = bits(s.value);
  if (ma == mb) return true;
  std::ostringstream os;
  os << name << ": " << ma.size() << " vs " << mb.size() << " results";
  for (const auto& [k, v] : ma) {
    const auto it = mb.find(k);
    if (it == mb.end() || it->second != v) {
      os << ", first difference at key '" << k << "'";
      break;
    }
  }
  *why = os.str();
  return false;
}

void corrupt_one(Round& r) {
  for (auto& [q, res] : r) {
    if (!res.empty()) {
      res.front().value += 1;
      return;
    }
  }
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<health::HealthRule> load_rules(const std::vector<std::string>& files) {
  std::vector<health::HealthRule> rules = health::builtin_rules();
  for (const auto& f : files) {
    health::ParseResult parsed = health::parse_health_rules(read_file(f));
    if (!parsed.error.empty()) {
      throw std::runtime_error(f + ": " + parsed.error);
    }
    for (auto& r : parsed.rules) rules.push_back(std::move(r));
  }
  return rules;
}

// Largest high-water mark of the per-shard queue-depth gauges.
int64_t queue_depth_peak() {
  int64_t peak = 0;
  for (const auto& m : obs::registry().snapshot().metrics) {
    if (m.name.rfind("netqre_parallel_shard_queue_depth", 0) == 0) {
      peak = std::max(peak, m.peak);
    }
  }
  return peak;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ------------------------------------------------------------ one run

struct RunData {
  Outcome out;
  double cpu_ns_per_packet = 0;
};

struct Tenants {
  std::vector<CompiledSpec> compiled;
  std::unique_ptr<core::QuerySet> set;
  std::unique_ptr<core::ParallelQuerySet> parallel;
};

RunData run_once(const Options& o, bool traced) {
  RunData rd;
  Outcome& out = rd.out;
  const Spec spec = make_spec(o);
  Spans spans;
  obs::registry().reset();
  const auto fail = [&](const std::string& why) {
    out.correct = false;
    ++out.failed;
    out.errors.push_back(why);
  };

  // ---- set-up, repeated: compile (lint + certify), load, open the reader.
  std::vector<double> setup_s, load_us, unload_us;
  Tenants t;
  uint64_t loads = 0;
  const int64_t setup_t0 = now_ns();
  for (int rep = 0;
       rep < kSetupRepeats || now_ns() - setup_t0 < kSetupMinNs; ++rep) {
    if (t.parallel) t.parallel->finish();
    t = Tenants{};
    const int64_t t0 = now_ns();
    for (const auto& q : spec.queries) {
      t.compiled.push_back(compile_query(q, o.queries_dir, spans));
    }
    if (spec.workers > 0) {
      t.parallel = std::make_unique<core::ParallelQuerySet>(spec.workers, 0,
                                                            partition);
    } else {
      t.set = std::make_unique<core::QuerySet>();
    }
    for (const auto& c : t.compiled) {
      core::QuerySet::LoadOptions lo;
      lo.state_quota_bytes = c.spec.quota;
      const int64_t l0 = now_ns();
      const bool ok = t.set ? t.set->load(c.spec.name, c.query, lo)
                            : t.parallel->load(c.spec.name, c.query, lo);
      load_us.push_back(static_cast<double>(now_ns() - l0) / 1e3);
      ++loads;
      if (!ok) fail("load of " + c.spec.name + " failed");
    }
    { net::MappedPcapReader open(spec.run.pcap); }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  spans.clear();
  out.attempted += loads;

  MonitorConfig mcfg;
  mcfg.rules = load_rules(spec.health_files);
  mcfg.range_reads_per_round = spec.range_reads;
  mcfg.store.max_keys = spec.store_keys;
  Spans round_spans;  // sharded rounds run on a worker: never traced
  Monitor mon(mcfg, spec.workers > 0 ? round_spans : spans);
  Pipeline pipe(mon, spans, t.set.get(), t.parallel.get());

  // Records in the capture vs packets the reader decodes from it.
  uint64_t records = 0, pass_packets = 0;
  {
    net::MappedPcapReader r(spec.run.pcap);
    net::PacketView v;
    while (r.next_view(v)) ++records;
    net::MappedPcapReader r2(spec.run.pcap);
    net::PacketBatch b(1024);
    while (r2.fill(b, 1024) > 0) pass_packets += b.size();
  }

  Round pass1;
  bool have_pass1 = false;
  uint64_t fed_warmup = 0;
  std::map<std::string, uint64_t> voip_expect;
  uint64_t voip_calls = 0;
  if (o.workload == "voip-usage") {
    std::istringstream in(read_file(expect_path(o)));
    std::string kind;
    while (in >> kind) {
      if (kind == "calls") {
        in >> voip_calls;
      } else {
        uint64_t bytes = 0;
        std::string user;
        in >> bytes;
        in >> std::ws;
        std::getline(in, user);
        voip_expect[user] = bytes;
      }
    }
  }
  uint64_t voip_checked = 0;
  uint64_t pass_state_bytes = 0;  // voip-usage: state when a pass ended

  pipe.on_pass_end = [&](uint64_t pass) {
    if (pass == 0) {
      fed_warmup = spec.run.warmup_pass ? pass_packets : 0;
      if (t.set) {
        pipe.snapshot(pass1, 0);
        have_pass1 = true;
      }
    }
    if (!spec.fresh_state_per_pass) return;
    // voip-usage: check this pass against the trace, then start afresh.
    Round snap;
    pipe.snapshot(snap, pass);
    if (o.corrupt) corrupt_one(snap);
    ++out.attempted;
    bool ok = true;
    for (const auto& [q, res] : snap) {
      if (q == "voip_count.nqre") {
        if (res.size() != 1 || res[0].value != static_cast<double>(voip_calls)) {
          ok = false;
          fail("voip_call_count != " + std::to_string(voip_calls) +
               " calls in the trace (pass " + std::to_string(pass) + ")");
        }
      } else if (q == "voip_usage.nqre") {
        std::map<std::string, uint64_t> got;
        for (const auto& r : res) got[r.key] = static_cast<uint64_t>(r.value);
        if (got != voip_expect) {
          ok = false;
          std::string first;
          for (const auto& [u, b] : voip_expect) {
            if (got[u] != b) {
              first = u + " expected " + std::to_string(b) + " got " +
                      std::to_string(got[u]);
              break;
            }
          }
          fail("usage_per_user mismatch (pass " + std::to_string(pass) +
               "): " + first);
        }
      }
    }
    if (ok) ++voip_checked;
    t.set->sample_state_metrics();
    pass_state_bytes = 0;
    for (const auto& st : t.set->status()) pass_state_bytes += st.state_bytes;
    for (const auto& c : t.compiled) {
      int64_t u0 = now_ns();
      const bool removed = t.set->unload(c.spec.name);
      unload_us.push_back(static_cast<double>(now_ns() - u0) / 1e3);
      u0 = now_ns();
      const bool added = t.set->load(c.spec.name, c.query);
      load_us.push_back(static_cast<double>(now_ns() - u0) / 1e3);
      out.attempted += 2;
      if (!removed || !added) fail("reload of " + c.spec.name + " failed");
    }
  };

  // tenant-churn: every period, one churnable tenant (never a quota-bound
  // one) makes way for a freshly compiled inline query.
  std::vector<std::string> churnable;
  std::set<std::string> stable;
  for (const auto& c : t.compiled) {
    stable.insert(c.spec.name);
    if (o.workload == "tenant-churn" && c.spec.quota == 0 &&
        churnable.size() < 16 && c.spec.name.find("#") != std::string::npos &&
        std::stoi(c.spec.name.substr(c.spec.name.find('#') + 1)) % 4 == 3) {
      churnable.push_back(c.spec.name);
    }
  }
  for (const auto& n : churnable) stable.erase(n);
  uint64_t churn_seq = 0;
  bool churning = false;  // off during the warm-up pass
  if (o.workload == "tenant-churn") {
    pipe.on_pass_end = [&](uint64_t pass) {
      if (pass == 0) {
        fed_warmup = pass_packets;
        churning = true;
      }
    };
    bool churn_due = false;
    pipe.on_batch_end = [&](uint64_t batch) {
      if (churning && batch % kChurnPeriodBatches == 0) churn_due = true;
      // ParallelQuerySet::snapshot_all_async looks loaded names up again
      // after its visit, so an unload landing mid-visit throws on the
      // worker (README "Known defects").  Churn therefore waits for the
      // round in flight to finish.
      if (!churn_due || pipe.round_in_flight()) return;
      churn_due = false;
      const std::string victim = churnable[churn_seq % churnable.size()];
      int64_t u0 = now_ns();
      const bool removed = t.parallel->unload(victim);
      unload_us.push_back(static_cast<double>(now_ns() - u0) / 1e3);
      CompiledSpec fresh = compile_query(churn_spec(churn_seq), o.queries_dir, spans);
      u0 = now_ns();
      const bool added = t.parallel->load(fresh.spec.name, fresh.query);
      load_us.push_back(static_cast<double>(now_ns() - u0) / 1e3);
      out.attempted += 2;
      if (!removed || !added) fail("churn of " + victim + " failed");
      churnable[churn_seq % churnable.size()] = fresh.spec.name;
      ++churn_seq;
    };
  }

  // ---- the timed phase
  spans.on = traced;
  pipe.run(spec.run);
  spans.on = false;
  // Span times of the timed phase (the checks and probes below add more).
  const auto run_self = spans.self_by_name();
  const auto run_total = spans.total_by_name();
  const auto run_layer = spans.self_by_layer();
  const double rss = rss_peak_mb();

  // ---- results at run end
  if (t.set) t.set->sample_state_metrics();
  const std::vector<core::QueryStatus> status =
      t.set ? t.set->status() : t.parallel->status();
  uint64_t state_bytes = 0, evicted = 0, resets = 0;
  for (const auto& st : status) {
    state_bytes += st.state_bytes;
    evicted += st.evicted_keys;
    resets += st.quota_resets;
  }
  // Fresh state every pass: the end of the last complete pass is the
  // state's high-water mark; run end falls anywhere inside a pass.
  if (spec.fresh_state_per_pass) state_bytes = pass_state_bytes;
  out.attempted += pipe.packets + mon.operations;
  if (mon.failures) {
    fail(std::to_string(mon.failures) + " pushes rejected");
    out.failed += mon.failures - 1;  // fail() counted one
  }
  const uint64_t undecodable_per_pass = records - pass_packets;
  if (undecodable_per_pass) {
    fail(std::to_string(undecodable_per_pass) + " undecodable packets per pass");
  }

  // ---- correctness checks (outside timing)
  std::map<std::string, int64_t> tenant_ns;
  int64_t shared_ns = 0;
  int64_t single_ns = 0;  // tenant-churn: single-thread replay of one pass
  const uint64_t check_packets = pass_packets;
  std::vector<const CompiledSpec*> all;
  for (const auto& c : t.compiled) all.push_back(&c);
  if (o.workload == "backbone") {
    ++out.attempted;
    if (!have_pass1) {
      fail("warm-up pass produced no snapshot");
    } else {
      if (o.corrupt) corrupt_one(pass1);
      const Round ref = replay(all, spec.run.pcap, check_packets,
                               core::EngineTier::Interpreted, nullptr, spans,
                               "check.interpreted");
      for (const auto& c : t.compiled) {
        std::string why;
        if (!same_results(pass1, ref, c.spec.name, &why)) {
          fail("backbone vs interpreted tier: " + why);
          break;
        }
      }
    }
  } else if (o.workload == "attack-mix") {
    ++out.attempted;
    if (!have_pass1) {
      fail("the run ended before the first pass did");
    } else {
      if (o.corrupt) corrupt_one(pass1);
      for (const CompiledSpec* c : all) {
        int64_t ns = 0;
        spans.on = traced;
        const Round alone = replay({c}, spec.run.pcap, check_packets,
                                   core::EngineTier::Auto, &ns, spans,
                                   "tenant.on_batch");
        spans.on = false;
        tenant_ns[c->spec.name] = ns;
        std::string why;
        if (!same_results(pass1, alone, c->spec.name, &why)) {
          fail("shared set vs standalone: " + why);
          break;
        }
      }
    }
    const std::string log = mon.store_rule_log();
    const uint64_t transitions =
        static_cast<uint64_t>(std::count(log.begin(), log.end(), '\n'));
    const uint64_t need = o.scale >= 1 ? kMinTransitions : 1;
    ++out.attempted;
    if (transitions < need) {
      fail("only " + std::to_string(transitions) +
           " store-rule transitions committed (need " + std::to_string(need) +
           ")");
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "log_sha %llu store-rule transitions %016llx",
                  static_cast<unsigned long long>(transitions),
                  static_cast<unsigned long long>(fnv1a(log)));
    out.notes.push_back(buf);
    std::ofstream(o.out_dir + "/attack-mix.alerts.log") << log;
  } else if (o.workload == "tenant-churn") {
    ++out.attempted;
    const uint64_t offered = fed_warmup + pipe.packets;
    if (t.parallel->packets() != offered) {
      fail("packets counted " + std::to_string(t.parallel->packets()) +
           " != offered " + std::to_string(offered));
    }
    // Quota-bound tenants stay within quota on every shard.
    ++out.attempted;
    for (const auto& c : t.compiled) {
      if (!c.spec.quota) continue;
      for (int s = 0; s < spec.workers; ++s) {
        const auto st = t.parallel->shard_set(s).status(c.spec.name);
        if (st && st->state_bytes > c.spec.quota) {
          fail(c.spec.name + " holds " + std::to_string(st->state_bytes) +
               " B over its " + std::to_string(c.spec.quota) + " B quota");
        }
      }
    }
    // Non-evicting stable tenants: sharded run == per-shard single-thread
    // replay of the same packets, merged the same way.
    ++out.attempted;
    std::vector<const CompiledSpec*> plain;
    for (const auto& c : t.compiled) {
      if (!c.spec.quota && stable.count(c.spec.name)) plain.push_back(&c);
    }
    core::ParallelQuerySet par(spec.workers, 0, partition);
    for (const CompiledSpec* c : plain) par.load(c->spec.name, c->query);
    std::vector<std::unique_ptr<core::QuerySet>> single;
    for (int s = 0; s < spec.workers; ++s) {
      single.push_back(std::make_unique<core::QuerySet>());
      for (const CompiledSpec* c : plain) single.back()->load(c->spec.name, c->query);
    }
    {
      net::MappedPcapReader reader(spec.run.pcap);
      net::PacketBatch batch(1024);
      std::vector<std::vector<net::Packet>> parts(spec.workers);
      while (reader.fill(batch, 1024) > 0) {
        for (auto& p : parts) p.clear();
        for (const auto& p : batch) parts[partition(p) % spec.workers].push_back(p);
        const int64_t s0 = now_ns();
        for (int s = 0; s < spec.workers; ++s) single[s]->on_batch(parts[s]);
        single_ns += now_ns() - s0;
        par.feed(std::move(batch));
      }
      par.finish();
    }
    Round sharded, merged;
    par.snapshot_all_async([&](Round r) { sharded = std::move(r); });
    for (int s = 0; s < spec.workers; ++s) {
      Round part;
      single[s]->snapshot_all(part);
      for (auto& [q, res] : part) {
        auto it = std::find_if(merged.begin(), merged.end(),
                               [&](const auto& e) { return e.first == q; });
        if (it == merged.end()) {
          merged.emplace_back(q, std::vector<core::ResultSample>{});
          it = merged.end() - 1;
        }
        const bool scalar = single[s]->is_scalar(q);
        for (auto& r : res) {
          if (scalar) {
            it->second.push_back({"shard" + std::to_string(s), r.value});
            continue;
          }
          auto k = std::find_if(it->second.begin(), it->second.end(),
                                [&](const auto& e) { return e.key == r.key; });
          if (k == it->second.end()) {
            it->second.push_back(r);
          } else {
            k->value += r.value;
          }
        }
      }
    }
    if (o.corrupt) corrupt_one(sharded);
    for (const CompiledSpec* c : plain) {
      std::string why;
      if (!same_results(sharded, merged, c->spec.name, &why)) {
        fail("sharded vs single-thread replay: " + why);
        break;
      }
    }
  } else if (o.workload == "voip-usage") {
    if (voip_checked == 0 && out.errors.empty()) {
      fail("no pass completed, nothing checked");
    }
  }

  // ---- teardown: unload every query (timed, part of the roster layer)
  for (const auto& n : t.set ? t.set->names() : t.parallel->names()) {
    const int64_t u0 = now_ns();
    const bool removed = t.set ? t.set->unload(n) : t.parallel->unload(n);
    unload_us.push_back(static_cast<double>(now_ns() - u0) / 1e3);
    ++out.attempted;
    if (!removed) fail("unload of " + n + " failed");
  }

  // ---- end-to-end metrics
  const double wall_s = static_cast<double>(pipe.wall_ns) / 1e9;
  const double pkts = static_cast<double>(std::max<uint64_t>(pipe.packets, 1));
  rd.cpu_ns_per_packet = static_cast<double>(pipe.cpu_ns_used) / pkts;
  auto& e = out.end_to_end;
  // Closed loops: throughput and CPU per packet of the run's best window
  // (whole passes, at least a second).  Every window does the same kind of
  // work, and other
  // tenants of the machine only ever slow a window down, so the best one is
  // the steadiest reading of what the pipeline can do.  The open loop offers
  // a fixed amount of work, so it reports the whole run.
  const bool best = !spec.run.open_loop && !pipe.window_pps.empty();
  e.push_back({"throughput_pps",
               best ? quantile(pipe.window_pps, 1.0) : pkts / wall_s,
               "packets/s", best ? pipe.window_pps.size() : 0});
  e.push_back({"cpu_ns_per_packet",
               best ? quantile(pipe.window_cpu_ns, 0.0) : rd.cpu_ns_per_packet,
               "ns", best ? pipe.window_cpu_ns.size() : 0});
  // Latency percentiles: the median over one-second windows of each
  // window's percentile.  Not the best window: a tail is set by the rare
  // batches (rounds, churn) that some windows happen to miss.
  e.push_back({"batch_latency_p50_us",
               windowed_quantile(pipe.batch_us, pipe.run_t0, 0.5), "us",
               pipe.batch_us.size()});
  e.push_back({"batch_latency_p99_us",
               windowed_quantile(pipe.batch_us, pipe.run_t0, 0.99), "us",
               pipe.batch_us.size()});
  e.push_back({"alert_latency_p50_ms",
               windowed_quantile(mon.alert_ms, pipe.run_t0, 0.5), "ms",
               mon.alert_ms.size()});
  e.push_back({"alert_latency_p95_ms",
               windowed_quantile(mon.alert_ms, pipe.run_t0, 0.95), "ms",
               mon.alert_ms.size()});
  e.push_back({"setup_s", median(setup_s), "s", setup_s.size()});
  e.push_back({"state_bytes", static_cast<double>(state_bytes), "bytes", 0});
  e.push_back({"rss_peak_mb", rss, "MB", 0});
  {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "transition_latency_p50_ms %.4f p95 %.4f (n=%zu transitions)",
                  quantile(mon.hook_ms, 0.5), quantile(mon.hook_ms, 0.95),
                  mon.hook_ms.size());
    out.notes.push_back(buf);
    const auto batch = values_of(pipe.batch_us);
    const auto alert = values_of(mon.alert_ms);
    std::snprintf(buf, sizeof buf,
                  "pooled batch_latency p50 %.1f p99 %.1f us (n=%zu), "
                  "alert_latency p50 %.3f p95 %.3f ms (n=%zu)",
                  quantile(batch, 0.5), quantile(batch, 0.99), batch.size(),
                  quantile(alert, 0.5), quantile(alert, 0.95), alert.size());
    out.notes.push_back(buf);
    std::string wins = "window cpu ns/packet:";
    for (double v : pipe.window_cpu_ns) wins += " " + std::to_string(static_cast<int64_t>(v));
    out.notes.push_back(wins);
    std::snprintf(buf, sizeof buf,
                  "batch_latency deciles us: %.0f %.0f %.0f %.0f %.0f %.0f %.0f "
                  "%.0f %.0f",
                  quantile(batch, 0.1), quantile(batch, 0.2), quantile(batch, 0.3),
                  quantile(batch, 0.4), quantile(batch, 0.5), quantile(batch, 0.6),
                  quantile(batch, 0.7), quantile(batch, 0.8), quantile(batch, 0.9));
    out.notes.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "packets %llu in %.3f s (%.1f pps, %.1f cpu ns/packet), "
                  "%llu passes, %llu rounds, %llu skipped",
                  static_cast<unsigned long long>(pipe.packets), wall_s,
                  pkts / wall_s, rd.cpu_ns_per_packet,
                  static_cast<unsigned long long>(pipe.passes),
                  static_cast<unsigned long long>(mon.rounds),
                  static_cast<unsigned long long>(pipe.skipped_rounds));
    out.notes.push_back(buf);
  }
  if (!traced) return rd;

  // ---- per-layer metrics (traced run)
  auto& l = out.per_layer;
  const auto get = [](const std::map<std::string, int64_t>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double decoded = static_cast<double>(std::max<uint64_t>(pipe.decoded, 1));
  l.push_back({"net.fill_ns_per_packet", get(run_self, "net.fill") / decoded, "ns", 0});
  // Captured bytes per record, from the capture's size.
  l.push_back({"net.bytes_per_packet",
               static_cast<double>(std::filesystem::file_size(spec.run.pcap) -
                                   24 - 16 * records) /
                   static_cast<double>(std::max<uint64_t>(records, 1)),
               "bytes", 0});
  l.push_back({"net.undecodable", static_cast<double>(undecodable_per_pass),
               "count", 0});

  // Shared vs standalone over one pass: tenant cost and sharing gain.
  {
    std::vector<const CompiledSpec*> uniq;
    std::set<std::string> seen;
    for (const CompiledSpec* c : all) {
      if (seen.insert(c->spec.file + ":" + c->spec.main).second) uniq.push_back(c);
    }
    const uint64_t slice = std::min<uint64_t>(check_packets, 50'000);
    spans.on = true;
    for (const CompiledSpec* c : uniq) {
      if (!tenant_ns.count(c->spec.name)) {
        int64_t ns = 0;
        replay({c}, spec.run.pcap, slice, core::EngineTier::Auto, &ns, spans,
               "tenant.on_batch");
        tenant_ns[c->spec.name] = ns;
      }
    }
    const uint64_t tenant_packets =
        o.workload == "attack-mix" ? check_packets : slice;
    replay(uniq, spec.run.pcap, tenant_packets, core::EngineTier::Auto,
           &shared_ns, spans, "tenant.shared");
    spans.on = false;
    double sum = 0, top = 0, syn = 0, usage = 0;
    std::string top_name;
    for (const auto& [name, ns] : tenant_ns) {
      const double per = static_cast<double>(ns) / static_cast<double>(tenant_packets);
      char buf[256];
      std::snprintf(buf, sizeof buf, "tenant.%s.ns_per_packet %.2f ns", name.c_str(), per);
      out.notes.push_back(buf);
      sum += per;
      if (per > top) {
        top = per;
        top_name = name;
      }
      // By query file: attack-mix loads two syn_flood.nqre entry points.
      if (name.rfind("syn_flood.nqre", 0) == 0) syn += per;
      if (name.rfind("voip_usage.nqre", 0) == 0) usage += per;
    }
    out.notes.push_back("tenant.top " + top_name);
    l.push_back({"tenant.top_ns_per_packet", top, "ns", 0});
    l.push_back({"tenant.top_share", sum > 0 ? top / sum : 0, "ratio", 0});
    l.push_back({"tenant.sum_ns_per_packet", sum, "ns", 0});
    l.push_back({"tenant.syn_flood_share", sum > 0 ? syn / sum : 0, "ratio", 0});
    l.push_back({"tenant.usage_per_user_share", sum > 0 ? usage / sum : 0, "ratio", 0});
    const double shared_per =
        static_cast<double>(shared_ns) / static_cast<double>(tenant_packets);
    l.push_back({"queryset.sharing_gain", shared_per > 0 ? sum / shared_per : 0,
                 "ratio", 0});
  }

  double on_batch_ns = 0;
  if (t.set) {
    on_batch_ns = get(run_total, "queryset.on_batch") / pkts;
  } else {
    on_batch_ns = static_cast<double>(single_ns) / static_cast<double>(check_packets);
  }
  l.push_back({"queryset.on_batch_ns_per_packet", on_batch_ns, "ns", 0});
  const double busy =
      t.set ? get(run_total, "queryset.on_batch") : get(run_total, "parallel.feed");
  l.push_back({"queryset.busy_share", busy / static_cast<double>(pipe.wall_ns),
               "ratio", 0});
  // Teardown emptied the roster: read the pool figures from a fresh load.
  {
    core::QuerySet probe;
    for (const CompiledSpec* c : all) probe.load(c->spec.name, c->query);
    l.push_back({"queryset.atom_pool_size", static_cast<double>(probe.atom_pool_size()),
                 "count", 0});
    l.push_back({"queryset.atom_refs", static_cast<double>(probe.atom_refs()),
                 "count", 0});
  }
  l.push_back({"queryset.state_bytes", static_cast<double>(state_bytes), "bytes", 0});
  l.push_back({"queryset.evicted_keys", static_cast<double>(evicted), "count", 0});
  l.push_back({"queryset.quota_resets", static_cast<double>(resets), "count", 0});
  l.push_back({"queryset.snapshot_us", median(pipe.snapshot_us), "us", 0});
  l.push_back({"queryset.load_us_p50", median(load_us), "us", 0});
  l.push_back({"queryset.load_us_max", quantile(load_us, 1.0), "us", 0});
  l.push_back({"queryset.unload_us_p50", median(unload_us), "us", 0});
  l.push_back({"queryset.unload_us_max", quantile(unload_us, 1.0), "us", 0});
  {
    double sum = 0, mx = 0;
    for (const auto& c : t.compiled) {
      sum += c.compile_ms;
      mx = std::max(mx, c.compile_ms);
    }
    l.push_back({"lang.compile_ms_total", sum, "ms", 0});
    l.push_back({"lang.compile_ms_max", mx, "ms", 0});
  }

  // Sharded dispatch: the run itself on tenant-churn, else a probe over
  // one slice on 2 workers vs 1 worker.
  {
    const uint64_t slice = std::min<uint64_t>(check_packets, 50'000);
    const auto probe = [&](int workers, double* feed_ns, double* skew) {
      core::ParallelQuerySet par(workers, 0, partition);
      for (const CompiledSpec* c : all) par.load(c->spec.name, c->query);
      net::MappedPcapReader reader(spec.run.pcap);
      net::PacketBatch batch(1024);
      uint64_t n = 0;
      int64_t feed = 0;
      const int64_t c0 = cpu_ns();
      while (n < slice && reader.fill(batch, 1024) > 0) {
        n += batch.size();
        const int64_t f0 = now_ns();
        par.feed(std::move(batch));
        feed += now_ns() - f0;
      }
      par.finish();
      const int64_t cpu = cpu_ns() - c0;
      if (feed_ns) *feed_ns = static_cast<double>(feed) / static_cast<double>(n);
      if (skew) {
        double mx = 0, sum = 0;
        for (int s = 0; s < workers; ++s) {
          const double p = static_cast<double>(par.shard_set(s).packets());
          mx = std::max(mx, p);
          sum += p;
        }
        *skew = sum > 0 ? mx / (sum / workers) : 0;
      }
      return static_cast<double>(cpu);
    };
    double feed_ns = 0, skew = 0;
    int64_t depth = 0;
    if (t.parallel) {
      feed_ns = get(run_self, "parallel.feed") / pkts;
      depth = queue_depth_peak();
      double mx = 0, sum = 0;
      for (int s = 0; s < spec.workers; ++s) {
        const double p = static_cast<double>(t.parallel->shard_set(s).packets());
        mx = std::max(mx, p);
        sum += p;
      }
      skew = sum > 0 ? mx / (sum / spec.workers) : 0;
    }
    obs::registry().reset();
    double probe_feed = 0, probe_skew = 0;
    const double cpu2 = probe(2, &probe_feed, &probe_skew);
    if (!t.parallel) {
      feed_ns = probe_feed;
      skew = probe_skew;
      depth = queue_depth_peak();
    }
    const double cpu1 = probe(1, nullptr, nullptr);
    l.push_back({"parallel.feed_ns_per_packet", feed_ns, "ns", 0});
    l.push_back({"parallel.queue_depth_max", static_cast<double>(depth), "count", 0});
    l.push_back({"parallel.shard_skew", skew, "ratio", 0});
    l.push_back({"parallel.cpu_ratio_vs_1worker", cpu1 > 0 ? cpu2 / cpu1 : 0,
                 "ratio", 0});
  }

  const double rounds = static_cast<double>(std::max<uint64_t>(mon.rounds, 1));
  l.push_back({"store.ingest_us", median(mon.ingest_us), "us", 0});
  l.push_back({"store.samples_per_round", static_cast<double>(mon.samples) / rounds,
               "count", 0});
  l.push_back({"store.query_us", median(mon.query_us), "us", 0});
  l.push_back({"store.resident_bytes", static_cast<double>(mon.store().resident_bytes()),
               "bytes", 0});
  l.push_back({"store.evicted_keys", static_cast<double>(mon.store().evicted_keys()),
               "count", 0});
  l.push_back({"health.evaluate_us", median(mon.evaluate_us), "us", 0});
  l.push_back({"health.transitions", static_cast<double>(mon.health().transitions_total()),
               "count", 0});
  l.push_back({"health.suppressed", static_cast<double>(mon.health().suppressed_total()),
               "count", 0});
  l.push_back({"stream.render_us", median(mon.render_us), "us", 0});
  l.push_back({"stream.apply_us", median(mon.apply_us), "us", 0});
  l.push_back({"stream.bytes_per_round", static_cast<double>(mon.push_bytes) / rounds,
               "bytes", 0});
  l.push_back({"obs.scrape_us", median(mon.scrape_us), "us", 0});
  l.push_back({"obs.scrape_bytes",
               static_cast<double>(mon.scrape_bytes) /
                   static_cast<double>(std::max<size_t>(mon.scrape_us.size(), 1)),
               "bytes", 0});
  l.push_back({"gen.late_p99_ms", quantile(pipe.late_ms, 0.99), "ms", 0});

  // Self-time shares of the timed phase, per layer.
  {
    const double wall = static_cast<double>(pipe.wall_ns);
    int64_t busy_ns = 0;
    for (const auto& [layer, ns] : run_layer) {
      if (layer != "idle") busy_ns += ns;
    }
    for (const char* name : {"net", "queryset", "parallel", "store", "health",
                             "stream", "obs", "lang", "bench", "idle"}) {
      l.push_back({std::string("share.") + name + "_pct",
                   100.0 * get(run_layer, name) / wall, "%", 0});
    }
    l.push_back({"trace.cpu_accounted_pct",
                 100.0 * static_cast<double>(busy_ns) /
                     static_cast<double>(std::max<int64_t>(pipe.cpu_ns_used, 1)),
                 "%", 0});
  }
  spans.write(o.out_dir + "/" + o.workload + ".spans.tsv");
  return rd;
}

}  // namespace

const std::vector<std::string>& workload_names() { return kNames; }

void generate(const Options& o) {
  const std::string path = pcap_path(o);
  if (o.workload == "backbone") {
    write_pcap(path,
               backbone_packets(scaled(kBackbonePackets, o), kBackboneFlows,
                                kBackboneTracePps, o.seed),
               true);
  } else if (o.workload == "attack-mix") {
    write_pcap(path, attack_packets(o), false);
  } else if (o.workload == "tenant-churn") {
    write_pcap(path,
               backbone_packets(scaled(kChurnPackets, o), kChurnFlows,
                                kChurnTracePps, o.seed),
               true);
  } else if (o.workload == "voip-usage") {
    trafficgen::SipConfig c;
    c.n_users = kVoipUsers;
    c.n_calls = kVoipCalls;
    c.media_pkts_per_call = kVoipMediaPerCall;
    c.call_spacing = kVoipCallSpacing;
    c.seed = o.seed;
    const auto pkts = trafficgen::sip_trace(c);
    write_pcap(path, pkts, false);
    write_voip_expectations(expect_path(o), pkts);
  } else {
    throw std::runtime_error("unknown workload " + o.workload);
  }
}

Outcome run(const Options& o) {
  if (!o.trace) return run_once(o, false).out;
  const RunData plain = run_once(o, false);
  RunData traced = run_once(o, true);
  Outcome out = std::move(traced.out);
  out.correct = out.correct && plain.out.correct;
  out.attempted += plain.out.attempted;
  out.failed += plain.out.failed;
  for (const auto& e : plain.out.errors) out.errors.push_back(e);
  out.per_layer.push_back(
      {"trace.overhead_pct",
       plain.cpu_ns_per_packet > 0
           ? 100.0 * (traced.cpu_ns_per_packet / plain.cpu_ns_per_packet - 1.0)
           : 0,
       "%", 0});
  return out;
}

}  // namespace perfbench

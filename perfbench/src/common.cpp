#include <cstdio>
#include <filesystem>
#include <thread>

#include "ir/inverted_index.h"
#include "sse/entry_codec.h"
#include "store/deployment.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per measured run. On a shared host one set-up's time swings by
/// 20-40% within a minute while the host's steal stays near zero (the
/// process's CPU time moves with it): neighbours slow the CPU down without
/// taking it away, so a steal filter cannot pick the quiet ones. The
/// median of five varies less from run to run than the fastest of five.
constexpr int kSetups = 5;

}  // namespace

void replay_client_steps(const sse::TrapdoorGenerator& trapdoors,
                         const cloud::FileCrypter& crypter, const std::string& keyword,
                         const Bytes& response) {
  std::uint64_t t = obs::now_ns();
  const sse::Trapdoor trapdoor = trapdoors.generate(keyword);
  record("sse.trapdoor", t, 0, true);
  t = obs::now_ns();
  const Bytes request = cloud::RankedSearchRequest{trapdoor, kTopK}.serialize();
  record("cloud.encode", t, request.size(), true);
  t = obs::now_ns();
  const auto decoded = cloud::RankedSearchResponse::deserialize(response);
  record("cloud.decode", t, response.size(), true);
  t = obs::now_ns();
  for (const cloud::RankedFile& f : decoded.files) (void)crypter.decrypt(f.id, f.blob);
  record("crypto.file_decrypt", t, decoded.files.size(), true);
}

void replay_row_scan(const sse::SecureIndex& index, const sse::Trapdoor& trapdoor) {
  std::uint64_t t = obs::now_ns();
  const auto hits = sse::RsseScheme::search(index, trapdoor, kTopK);
  record("sse.search", t, hits.size(), true, "server");
  const std::vector<Bytes>* row = index.row(trapdoor.label);
  if (row == nullptr) return;
  t = obs::now_ns();
  for (const Bytes& entry : *row)
    (void)sse::decrypt_entry(trapdoor.list_key, entry, sse::kRsseScoreFieldSize);
  record("sse.entry_decrypt", t, row->size(), true, "server");
}

void replay_solo_handle(const cloud::CloudServer& server, const sse::Trapdoor& trapdoor) {
  const std::uint64_t t = obs::now_ns();
  (void)server.handle(cloud::MessageType::kRankedSearch,
                      cloud::RankedSearchRequest{trapdoor, kTopK}.serialize());
  record("cloud.handle", t, 0, true, "tenant");
  replay_row_scan(server.index(), trapdoor);
}

const std::map<std::string, std::string> kTenantQueryParents = {
    {"sse.trapdoor", "query"},         {"cloud.encode", "query"},
    {"net.rpc", "query"},              {"cloud.decode", "query"},
    {"crypto.file_decrypt", "query"},  {"tenant.handle", "net.rpc"},
    {"cloud.handle", "tenant.handle"}, {"sse.search", "cloud.handle"},
    {"sse.entry_decrypt", "sse.search"}};

void run_clients(std::size_t clients, double seconds, Ledger& ledger,
                 const std::function<void(std::size_t, const std::atomic<bool>&)>& body) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c, stop);
      } catch (const std::exception& e) {
        ledger.fail("client_" + classify(e), e.what(), false);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
}

void setup_layer_values(const SetupTimes& t, const std::vector<OwnedCorpus>& owned,
                        Outcome& out) {
  out.values["cloud.outsource_s"] = t.outsource_s;
  out.values["store.save_s"] = t.save_s;
  out.values["store.load_s"] = t.load_s;
  out.values["opse.map_us"] =
      t.build.num_postings > 0
          ? t.build.opm_seconds / static_cast<double>(t.build.num_postings) * 1e6
          : 0.0;
  out.values["opse.hgd_samples_per_map"] =
      t.cost.opm_mappings > 0
          ? static_cast<double>(t.cost.hgd_samples) / static_cast<double>(t.cost.opm_mappings)
          : 0.0;
  out.values["crypto.entries_encrypted"] = static_cast<double>(t.cost.entries_encrypted);
  // Replays of the build's inner steps on the same corpora, unprofiled
  // like the set-up's own build.
  obs::Profiler& profiler = obs::Profiler::global();
  const bool profiling = profiler.enabled();
  profiler.set_enabled(false);
  double index_s = 0.0;
  double build_s = 0.0;
  for (const auto& [owner, corpus] : owned) {
    auto t0 = std::chrono::steady_clock::now();
    (void)ir::InvertedIndex::build(*corpus, owner->rsse().analyzer());
    index_s += since(t0);
    t0 = std::chrono::steady_clock::now();
    (void)owner->rsse().build_index(*corpus, build_options());
    build_s += since(t0);
  }
  profiler.set_enabled(profiling);
  out.values["ir.index_build_s"] = index_s;
  out.values["sse.build_s"] = build_s;
}

int setup_count(const Options& opt) { return opt.trace || opt.tiny ? 1 : kSetups; }

void remove_deployment(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::remove(store::wal_path(dir));
}

void SetupRecord::add(const SetupClock& started, const SetupTimes& times,
                      std::uint64_t stored_bytes, const std::string& workload) {
  wall_s_.push_back(since(started.wall));
  cpu_s_.push_back(process_cpu_seconds() - started.cpu_s);
  steal_.push_back(steal_share(started.host, HostTicks::now()));
  stored_bytes_ = stored_bytes;
  last_ = times;
  std::fprintf(stderr,
               "%s: set-up %zu took %.3f s (cpu %.3f s, steal %.1f%%; outsource %.3f, save %.3f, "
               "load %.3f)\n",
               workload.c_str(), wall_s_.size(), wall_s_.back(), cpu_s_.back(),
               100.0 * steal_.back(), times.outsource_s, times.save_s, times.load_s);
}

double SetupRecord::setup_s() const { return median(wall_s_); }

void SetupRecord::fill(Outcome& out) const {
  for (std::size_t i = 0; i < wall_s_.size(); ++i) {
    const std::string key = "setup." + std::to_string(i + 1) + ".";
    out.detail[key + "wall_s"] = wall_s_[i];
    out.detail[key + "cpu_s"] = cpu_s_[i];
    out.detail[key + "steal_share"] = steal_[i];
  }
}

void finish_run(const SetupRecord& setups, std::uint64_t input_bytes, const Ledger& ledger,
                Outcome& out) {
  out.values["setup_s"] = setups.setup_s();
  out.values["stored_bytes_per_input_byte"] =
      static_cast<double>(setups.stored_bytes()) / static_cast<double>(input_bytes);
  setups.fill(out);
  const obs::cost::Snapshot& cost = setups.last().cost;
  out.detail["cost.hmac_invocations"] = static_cast<double>(cost.hmac_invocations);
  out.detail["cost.hgd_samples"] = static_cast<double>(cost.hgd_samples);
  out.detail["cost.opm_mappings"] = static_cast<double>(cost.opm_mappings);
  out.detail["cost.entries_encrypted"] = static_cast<double>(cost.entries_encrypted);
  out.detail["cost.bytes_encrypted"] = static_cast<double>(cost.bytes_encrypted);
  out.values["peak_rss_mb"] = peak_rss_mb();
  ledger.fill(out);
  const auto sheds = out.failures_by_kind.find("quota_shed");
  out.values["tenant.sheds"] =
      sheds == out.failures_by_kind.end() ? 0.0 : static_cast<double>(sheds->second);
}

void probe(cloud::DataUser& user, const std::vector<std::string>& keywords,
           const Oracle& oracle, const ir::Corpus& corpus, Ledger& ledger) {
  for (const std::string& kw : keywords) {
    ledger.attempt();
    try {
      if (auto wrong = check_answer(oracle, corpus, kw, user.ranked_search(kw, kTopK), kTopK))
        ledger.fail("wrong_result", *wrong, true);
    } catch (const std::exception& e) {
      ledger.fail(classify(e), e.what(), false);
    }
  }
}

void query_layer_values(const Waterfall& w, Outcome& out) {
  const auto per_item = [](const Waterfall::Layer& l, double scale) {
    return l.count > 0.0 ? l.total_us * scale / l.count : 0.0;
  };
  out.values["sse.trapdoor_us"] = w.at("sse.trapdoor").span_us;
  out.values["cloud.request_encode_us"] = w.at("cloud.encode").span_us;
  out.values["cloud.response_decode_us"] = w.at("cloud.decode").span_us;
  out.values["crypto.file_decrypt_us"] = per_item(w.at("crypto.file_decrypt"), 1.0);
  out.values["sse.search_us"] = w.at("sse.search").span_us;
  out.values["sse.row_entries"] = w.at("sse.entry_decrypt").count;
  out.values["sse.entry_decrypt_ns"] = per_item(w.at("sse.entry_decrypt"), 1e3);
  out.values["query.total_us"] = w.root_us;
  out.values["query.unattributed_us"] = w.at("query").self_us;
  // Every layer's self time and share of the query, into the run record
  // (the root's self time is the unattributed remainder).
  for (const auto& [name, layer] : w.layers) {
    out.detail["waterfall." + name + ".self_us"] = layer.self_us;
    out.detail["waterfall." + name + ".share_pct"] = w.share_pct(name);
  }
}

void tenant_query_values(const Waterfall& w, const cloud::RequestHandler& host, Outcome& out) {
  query_layer_values(w, out);
  out.values["net.rpc_us"] = w.at("net.rpc").span_us;
  out.values["net.overhead_us"] = w.at("net.rpc").self_us;
  out.values["tenant.handle_us"] = w.at("tenant.handle").span_us;
  out.values["tenant.queue_wait_us"] = w.at("tenant.handle").self_us;
  out.values["cloud.handle_us"] = w.at("cloud.handle").span_us;
  out.values["cloud.response_bytes"] = w.at("net.rpc").count;
  out.values["net.in_flight_peak"] = in_flight_peak(host);
}

void latency_values(const PhaseMeter& queries, Outcome& out) {
  out.values["query_p50_ms"] = queries.latency_ms(0.50);
  out.values["cpu_ms_per_op"] = queries.cpu_ms_per_op();
  // The tail is printed in the run record but not gated: it tracks the
  // host's steal from run to run far more than the program.
  out.detail["query_p99_ms"] = queries.latency_ms(0.99);
  queries.record(out, "query_");
}

double trace_overhead_pct(const PhaseMeter& untraced, const PhaseMeter& traced) {
  const double base = untraced.latency_ms(0.5);
  return base > 0.0 ? 100.0 * (traced.latency_ms(0.5) - base) / base : 0.0;
}

double in_flight_peak(const cloud::RequestHandler& handler) {
  return static_cast<double>(
      handler.metrics_registry()
          .gauge("rsse_net_in_flight_peak", "High-water mark of admitted unanswered requests")
          .value());
}

void report_trace(const Options& opt, const std::vector<SpanRec>& spans,
                  const Waterfall& queries,
                  const std::map<std::string, std::string>& query_parents) {
  std::fprintf(stderr, "\nquery waterfall (%s, traced):\n%s", opt.workload.c_str(),
               format_waterfall(queries, "query", query_parents).c_str());
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-spans.jsonl";
  write_spans(path, spans);
  std::fprintf(stderr, "spans written to %s\n", path.c_str());
}

}  // namespace perfbench

// tenant_open: a tenant::TenantHost behind the reactor, open-loop traffic.
//
// Eight tenants, each with 30 short documents, so RsseScheme::search is a
// small part of a request's time in the server. Tenant-scoped top-10 requests
// arrive on a seeded Poisson schedule at one fixed aggregate rate, half of
// them for one hot tenant, over four connections, and each is timed from
// its scheduled send time.
//
// BENCHMARK.json does not list this workload; it is run by hand, for its
// waterfall of the reactor and tenant layers under open-loop traffic. Its
// requests are chains of thread wake-ups and kernel work at low load, and
// on a shared virtual machine their median latency and CPU per request
// rose by 30-50% for minutes at a time while the host was busy, more
// than the largest regression bound a gated metric may carry. search_tcp
// puts the tenant layer on a gated path.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <thread>

#include "net/remote_channel.h"
#include "store/deployment.h"
#include "tenant/host.h"
#include "tenant/scoped_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kTenants = 8;
constexpr std::size_t kConnections = 4;
/// Aggregate arrival rate, requests per second: an absolute number set
/// well below the host's saturation (about 7800/s over four connections
/// on a 4-vCPU guest with 60 documents per tenant; smaller collections
/// only raise it). Each connection waits for its answer, so the
/// capacity is 4 / latency: at 1000/s the schedule holds until a request
/// takes 4 ms, which keeps it from collapsing under a steal burst.
constexpr double kRatePerSecond = 1000.0;

std::string tenant_id(std::size_t t) {
  std::string id = "t";
  id += std::to_string(t);
  return id;
}

ir::CorpusGenOptions corpus_options(const Options& opt, std::size_t t) {
  ir::CorpusGenOptions o;
  // Thirty short documents: rows padded to nu <= 30 keep the row scan
  // (25-30 us on a 4-vCPU guest) under a fifth of the request's time in
  // the server over TCP (150-260 us). It is still 0.21-0.30 of
  // TenantHost::handle alone, which is mostly a worker-queue wait.
  o.num_documents = opt.tiny ? 20 : 30;
  o.vocabulary_size = opt.tiny ? 60 : 150;
  o.zipf_exponent = 1.05;
  o.min_tokens = 30;
  o.max_tokens = 150;
  o.injected.push_back(ir::InjectedKeyword{"network", o.num_documents * 3 / 5, 0.3, 60});
  o.seed = derive(opt.seed, 100 + t);
  return o;
}

/// The served host: per-tenant owners, the host loaded back from disk
/// behind the benchmark's handler decorator, and its TCP endpoint (members
/// are destroyed endpoint first).
struct Served {
  std::vector<std::unique_ptr<cloud::DataOwner>> owners;
  std::unique_ptr<tenant::TenantHost> host;
  std::unique_ptr<TimedHandler> handler;
  std::unique_ptr<net::NetworkServer> endpoint;
  SetupTimes times;
};

std::unique_ptr<Served> set_up(const Options& opt, const std::vector<ir::Corpus>& corpora,
                               const std::string& root, const std::string& first_keyword) {
  auto s = std::make_unique<Served>();
  tenant::TenantRegistry registry;
  for (std::size_t t = 0; t < kTenants; ++t) {
    s->owners.push_back(seeded_owner(derive(opt.seed, 200 + t)));
    cloud::CloudServer built;
    const auto cost0 = obs::cost::snapshot();
    auto t1 = std::chrono::steady_clock::now();
    const auto report = s->owners.back()->outsource_rsse(corpora[t], built, build_options());
    s->times.outsource_s += since(t1);
    const auto cost = obs::cost::delta(cost0, obs::cost::snapshot());
    s->times.cost.hmac_invocations += cost.hmac_invocations;
    s->times.cost.hgd_samples += cost.hgd_samples;
    s->times.cost.opm_mappings += cost.opm_mappings;
    s->times.cost.entries_encrypted += cost.entries_encrypted;
    s->times.cost.bytes_encrypted += cost.bytes_encrypted;
    s->times.build.opm_seconds += report.rsse_stats.opm_seconds;
    s->times.build.num_postings += report.rsse_stats.num_postings;
    t1 = std::chrono::steady_clock::now();
    const std::string ns = store::tenant_dir(root, tenant_id(t));
    store::save_deployment(built, ns);
    store::save_leakage_audit(report.rsse_audit, ns);
    registry.add(tenant::TenantConfig{tenant_id(t), {}, true});
    s->times.save_s += since(t1);
  }
  auto t1 = std::chrono::steady_clock::now();
  store::save_tenant_registry(registry, root);
  s->times.save_s += since(t1);

  s->host = std::make_unique<tenant::TenantHost>(host_options());
  t1 = std::chrono::steady_clock::now();
  store::load_tenant_deployment(root, *s->host);
  s->times.load_s = since(t1);
  for (const std::string& id : s->host->tenant_ids())
    s->host->find_server(id)->enable_background_compaction();
  enable_serve_profiler();
  s->handler = std::make_unique<TimedHandler>(*s->host, "host");
  s->handler->set_swap_results(opt.inject_swap);
  s->endpoint = std::make_unique<net::NetworkServer>(*s->handler, 0, serve_options());
  {
    net::RemoteChannel channel(s->endpoint->port());
    tenant::ScopedTransport scoped(channel, tenant_id(0));
    cloud::DataUser user(seeded_credentials(*s->owners[0], opt.seed, "user"), scoped);
    (void)user.ranked_search(first_keyword, kTopK);
  }
  return s;
}

/// One scheduled request.
struct Arrival {
  double at_s = 0.0;  ///< offset from the phase start
  std::size_t tenant = 0;
  const std::string* keyword = nullptr;  ///< drawn from the tenant's stream
};

/// The seeded Poisson schedule of one phase, dealt round-robin over the
/// connections. About half the arrivals go to tenant 0.
std::vector<std::vector<Arrival>> schedule(std::uint64_t seed, double seconds, double rate,
                                           std::vector<KeywordStream>& streams) {
  std::vector<std::vector<Arrival>> per_connection(kConnections);
  Xoshiro256 rng(seed);
  double t = 0.0;
  for (std::size_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    const std::size_t tenant = rng.bernoulli(0.5) ? 0 : 1 + rng.uniform_below(kTenants - 1);
    per_connection[i % kConnections].push_back(Arrival{t, tenant, &streams[tenant].next()});
  }
  return per_connection;
}

}  // namespace

Outcome run_tenant_open(const Options& opt) {
  SpanLog spans;  // outlives every server thread that may record into it
  Outcome out;
  Ledger ledger;

  // ----- inputs (not set-up) -----
  std::vector<ir::Corpus> corpora;
  std::uint64_t input_bytes = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    corpora.push_back(ir::generate_corpus(corpus_options(opt, t)));
    input_bytes += corpora.back().total_bytes();
  }
  const ir::Analyzer analyzer;
  std::vector<std::vector<std::string>> vocabularies;
  for (std::size_t t = 0; t < kTenants; ++t)
    vocabularies.push_back(query_vocabulary(corpora[t], analyzer));
  std::vector<KeywordStream> streams;
  for (std::size_t t = 0; t < kTenants; ++t)
    streams.emplace_back(vocabularies[t], 1.1, derive(opt.seed, 300 + t));
  const double rate = opt.tiny ? 200.0 : kRatePerSecond;
  const std::string root = opt.work_dir + "/tenant_open";

  // ----- set-up, repeated; the last host stays up -----
  SetupRecord setups;
  const std::string first_keyword = vocabularies[0].front();
  std::unique_ptr<Served> served = set_up_repeatedly(
      opt, root, setups, [&] { return set_up(opt, corpora, root, first_keyword); });
  tenant::TenantHost& host = *served->host;
  std::vector<cloud::UserCredentials> creds;
  std::vector<std::unique_ptr<Oracle>> oracles;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const cloud::DataOwner& owner = *served->owners[t];
    creds.push_back(seeded_credentials(owner, opt.seed, "user"));
    oracles.push_back(std::make_unique<Oracle>(corpora[t], *owner.quantizer()));
    for (const std::string& term : vocabularies[t])
      if (host.find_server(tenant_id(t))->index().row(owner.rsse().row_label(term)) == nullptr)
        throw Error("query keyword without an index row: " + term);
  }

  // ----- fixed probe pass: correctness, warm-up and bytes per query -----
  {
    net::RemoteChannel channel(served->endpoint->port());
    std::size_t probes = 0;
    for (std::size_t t = 0; t < kTenants; ++t) {
      tenant::ScopedTransport scoped(channel, tenant_id(t));
      cloud::DataUser user(creds[t], scoped);
      const std::vector<std::string> keywords =
          zipf_stream(vocabularies[t], opt.tiny ? 5 : 25, 1.1, derive(opt.seed, 400 + t));
      probe(user, keywords, *oracles[t], corpora[t], ledger);
      probes += keywords.size();
    }
    out.values["wire_bytes_per_query"] =
        static_cast<double>(channel.stats().total_bytes()) / static_cast<double>(probes);
  }

  // ----- open-loop query phase(s) -----
  std::uint64_t phase_seed = derive(opt.seed, 40);
  // A traced answer, replayed once the phase is over so that the replays
  // never delay the schedule.
  struct Answered {
    std::uint64_t request = 0;
    std::size_t tenant = 0;
    const std::string* keyword = nullptr;
    Bytes response;
  };
  const auto query_phase = [&](double seconds, PhaseMeter& meter, std::vector<double>& lag_ms) {
    const auto plan = schedule(phase_seed++, seconds, rate, streams);
    std::mutex lag_mutex;
    std::vector<Answered> answered;
    // Every connection starts from one instant, shortly after the threads
    // have connected; each ends with its share of the schedule.
    meter.start();
    const auto start = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    run_clients(kConnections, 0.0, ledger, [&](std::size_t c, const std::atomic<bool>&) {
      net::RemoteChannel channel(served->endpoint->port());
      TimedTransport timed(channel, "net.rpc");
      std::vector<std::unique_ptr<tenant::ScopedTransport>> scoped;
      std::vector<std::unique_ptr<cloud::DataUser>> users;
      for (std::size_t t = 0; t < kTenants; ++t) {
        scoped.push_back(std::make_unique<tenant::ScopedTransport>(timed, tenant_id(t)));
        users.push_back(std::make_unique<cloud::DataUser>(creds[t], *scoped.back()));
      }
      std::vector<double> lags;
      std::vector<Answered> mine;
      for (const Arrival& a : plan[c]) {
        const auto due = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                     std::chrono::duration<double>(a.at_s));
        std::this_thread::sleep_until(due);
        const std::string& kw = *a.keyword;
        current_request() = new_request_id();
        ledger.attempt();
        try {
          const std::uint64_t sent = obs::now_ns();
          lags.push_back(std::max(0.0, since(due)) * 1e3);
          const auto got = users[a.tenant]->ranked_search(kw, kTopK);
          meter.sample(std::max(0.0, since(due)) * 1e3);
          record("query", sent);
          const double c0 = thread_cpu_seconds();
          if (tracer() != nullptr)
            mine.push_back(
                Answered{current_request(), a.tenant, &kw, TimedTransport::last_response()});
          if (auto wrong =
                  check_answer(*oracles[a.tenant], corpora[a.tenant], kw, got, kTopK))
            ledger.fail("wrong_result", tenant_id(a.tenant) + " " + *wrong, true);
          meter.add_harness_cpu(thread_cpu_seconds() - c0);
        } catch (const std::exception& e) {
          ledger.fail(classify(e), e.what(), false);
        }
      }
      current_request() = 0;
      const std::lock_guard lock(lag_mutex);
      lag_ms.insert(lag_ms.end(), lags.begin(), lags.end());
      std::move(mine.begin(), mine.end(), std::back_inserter(answered));
    });
    meter.stop();
    for (const Answered& a : answered) {
      current_request() = a.request;
      const sse::TrapdoorGenerator trapdoors(creds[a.tenant].x, creds[a.tenant].y,
                                             creds[a.tenant].params.p_bits);
      replay_client_steps(trapdoors, cloud::FileCrypter(creds[a.tenant].file_master), *a.keyword,
                          a.response);
      replay_solo_handle(*host.find_server(tenant_id(a.tenant)), trapdoors.generate(*a.keyword));
    }
    current_request() = 0;
  };
  std::vector<double> lag_ms;
  if (!opt.trace) {
    PhaseMeter queries;
    query_phase(opt.seconds, queries, lag_ms);
    latency_values(queries, out);
  } else {
    PhaseMeter untraced, traced;
    std::vector<double> untraced_lag;
    query_phase(opt.seconds / 2, untraced, untraced_lag);
    set_tracer(&spans);
    query_phase(opt.seconds / 2, traced, lag_ms);
    set_tracer(nullptr);

    std::vector<SpanRec> all = spans.spans();
    const Waterfall queries = analyze(all, "query", kTenantQueryParents);
    report_trace(opt, all, queries, kTenantQueryParents);

    tenant_query_values(queries, host, out);
    out.values["net.generator_lag_ms"] = mean(lag_ms);
    out.values["obs.trace_overhead_pct"] = trace_overhead_pct(untraced, traced);
    std::vector<OwnedCorpus> owned;
    for (std::size_t t = 0; t < kTenants; ++t)
      owned.emplace_back(served->owners[t].get(), &corpora[t]);
    setup_layer_values(setups.last(), owned, out);
    latency_values(traced, out);
  }
  out.detail["generator_lag_p50_ms"] = percentile(lag_ms, 0.5);
  out.detail["generator_lag_p99_ms"] = percentile(lag_ms, 0.99);
  out.detail["offered_rate_per_s"] = rate;

  served.reset();
  remove_deployment(root);
  finish_run(setups, input_bytes, ledger, out);
  return out;
}

}  // namespace perfbench

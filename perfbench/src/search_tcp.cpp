// search_tcp: one owner at paper scale, served over TCP loopback.
//
// ~1000 files and ~400 keyword rows, every row padded to nu = 1000 (a
// 16 MB index). Two closed-loop users (DataUser over net::RemoteChannel)
// issue Zipf(1.1) keywords with top-10; every answer is checked against
// the plaintext oracle.
//
// The collection is a one-namespace tenant deployment, which `rsse serve`
// serves through a tenant::TenantHost (admission, then DWRR scheduling on
// its own workers) behind the reactor. That keeps the tenant layer on a
// gated path: tenant_open, which stresses it most, is not gated.
#include "net/remote_channel.h"
#include "store/deployment.h"
#include "tenant/scoped_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::string kTenant = "owner";

ir::CorpusGenOptions corpus_options(const Options& opt) {
  ir::CorpusGenOptions o;
  o.num_documents = opt.tiny ? 120 : 1000;
  o.vocabulary_size = opt.tiny ? 80 : 400;
  o.zipf_exponent = 1.05;
  o.min_tokens = opt.tiny ? 40 : 200;
  o.max_tokens = opt.tiny ? 400 : 3000;
  // One keyword in every file makes nu = N, the paper's Fig. 4 shape.
  o.injected.push_back(ir::InjectedKeyword{"network", o.num_documents, 0.35, 200});
  o.seed = derive(opt.seed, 10);
  return o;
}

/// One served deployment: the owner, the host loaded back from disk
/// behind the benchmark's handler decorator, and its TCP endpoint (members
/// are destroyed endpoint first).
struct Served {
  std::unique_ptr<cloud::DataOwner> owner;
  std::unique_ptr<tenant::TenantHost> host;
  std::unique_ptr<TimedHandler> handler;
  std::unique_ptr<net::NetworkServer> endpoint;
  SetupTimes times;
};

/// Set-up as measured by setup_s: outsource, save, load, serve, and the
/// first query answered. Corpus generation is input, not set-up.
std::unique_ptr<Served> set_up(const Options& opt, const ir::Corpus& corpus,
                               const std::string& root, const std::string& first_keyword) {
  auto s = std::make_unique<Served>();
  s->owner = seeded_owner(opt.seed);
  {
    cloud::CloudServer built;
    const auto cost0 = obs::cost::snapshot();
    auto t = std::chrono::steady_clock::now();
    const auto report = s->owner->outsource_rsse(corpus, built, build_options());
    s->times.outsource_s = since(t);
    s->times.cost = obs::cost::delta(cost0, obs::cost::snapshot());
    s->times.build = report.rsse_stats;
    t = std::chrono::steady_clock::now();
    const std::string ns = store::tenant_dir(root, kTenant);
    store::save_deployment(built, ns);
    store::save_leakage_audit(report.rsse_audit, ns);
    tenant::TenantRegistry registry;
    registry.add(tenant::TenantConfig{kTenant, {}, true});
    store::save_tenant_registry(registry, root);
    s->times.save_s = since(t);
  }
  s->host = std::make_unique<tenant::TenantHost>(host_options());
  const auto t = std::chrono::steady_clock::now();
  store::load_tenant_deployment(root, *s->host);
  s->times.load_s = since(t);
  s->host->find_server(kTenant)->enable_background_compaction();
  enable_serve_profiler();
  s->handler = std::make_unique<TimedHandler>(*s->host, "host");
  s->handler->set_swap_results(opt.inject_swap);
  s->endpoint = std::make_unique<net::NetworkServer>(*s->handler, 0, serve_options());
  {
    net::RemoteChannel channel(s->endpoint->port());
    tenant::ScopedTransport scoped(channel, kTenant);
    cloud::DataUser user(seeded_credentials(*s->owner, opt.seed, "user"), scoped);
    (void)user.ranked_search(first_keyword, kTopK);
  }
  return s;
}

}  // namespace

Outcome run_search_tcp(const Options& opt) {
  SpanLog spans;  // outlives every server thread that may record into it
  Outcome out;
  Ledger ledger;

  // ----- inputs (not set-up) -----
  const ir::Corpus corpus = ir::generate_corpus(corpus_options(opt));
  const ir::Analyzer analyzer;
  const std::vector<std::string> vocabulary = query_vocabulary(corpus, analyzer);
  std::vector<KeywordStream> streams = {KeywordStream(vocabulary, 1.1, derive(opt.seed, 20)),
                                        KeywordStream(vocabulary, 1.1, derive(opt.seed, 21))};
  const std::vector<std::string> probes =
      zipf_stream(vocabulary, opt.tiny ? 20 : 200, 1.1, derive(opt.seed, 30));
  const std::string root = opt.work_dir + "/search_tcp";

  // ----- set-up, repeated; the last deployment stays up -----
  SetupRecord setups;
  std::unique_ptr<Served> served = set_up_repeatedly(
      opt, root, setups, [&] { return set_up(opt, corpus, root, probes.front()); });
  const cloud::CloudServer& server = *served->host->find_server(kTenant);
  const cloud::UserCredentials creds = seeded_credentials(*served->owner, opt.seed, "user");
  const Oracle oracle(corpus, *served->owner->quantizer());
  for (const std::string& term : vocabulary)
    if (server.index().row(served->owner->rsse().row_label(term)) == nullptr)
      throw Error("query keyword without an index row: " + term);

  // ----- fixed probe pass: correctness, warm-up and bytes per query -----
  {
    net::RemoteChannel channel(served->endpoint->port());
    tenant::ScopedTransport scoped(channel, kTenant);
    cloud::DataUser user(creds, scoped);
    probe(user, probes, oracle, corpus, ledger);
    out.values["wire_bytes_per_query"] =
        static_cast<double>(channel.stats().total_bytes()) / static_cast<double>(probes.size());
  }

  // ----- closed-loop query phase(s) -----
  const auto query_phase = [&](double seconds, PhaseMeter& meter) {
    meter.start();
    run_clients(streams.size(), seconds, ledger, [&](std::size_t c, const std::atomic<bool>& stop) {
      net::RemoteChannel channel(served->endpoint->port());
      TimedTransport timed(channel, "net.rpc");
      tenant::ScopedTransport scoped(timed, kTenant);
      cloud::DataUser user(creds, scoped);
      const sse::TrapdoorGenerator trapdoors(creds.x, creds.y, creds.params.p_bits);
      const cloud::FileCrypter crypter(creds.file_master);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& kw = streams[c].next();
        current_request() = new_request_id();
        ledger.attempt();
        try {
          const std::uint64_t t0 = obs::now_ns();
          const auto got = user.ranked_search(kw, kTopK);
          meter.sample(static_cast<double>(obs::now_ns() - t0) * 1e-6);
          record("query", t0);
          const double c0 = thread_cpu_seconds();
          if (tracer() != nullptr) {
            replay_client_steps(trapdoors, crypter, kw, TimedTransport::last_response());
            replay_solo_handle(server, trapdoors.generate(kw));
          }
          if (auto wrong = check_answer(oracle, corpus, kw, got, kTopK))
            ledger.fail("wrong_result", *wrong, true);
          meter.add_harness_cpu(thread_cpu_seconds() - c0);
        } catch (const std::exception& e) {
          ledger.fail(classify(e), e.what(), false);
        }
      }
      current_request() = 0;
    });
    meter.stop();
  };
  if (!opt.trace) {
    PhaseMeter queries;
    query_phase(opt.seconds, queries);
    latency_values(queries, out);
  } else {
    PhaseMeter untraced, traced;
    query_phase(opt.seconds / 2, untraced);
    set_tracer(&spans);
    query_phase(opt.seconds / 2, traced);
    set_tracer(nullptr);

    std::vector<SpanRec> all = spans.spans();
    const Waterfall queries = analyze(all, "query", kTenantQueryParents);
    report_trace(opt, all, queries, kTenantQueryParents);

    tenant_query_values(queries, *served->host, out);
    out.values["obs.trace_overhead_pct"] = trace_overhead_pct(untraced, traced);
    setup_layer_values(setups.last(), {{served->owner.get(), &corpus}}, out);
    latency_values(traced, out);
  }

  served.reset();
  remove_deployment(root);
  finish_run(setups, corpus.total_bytes(), ledger, out);
  return out;
}

}  // namespace perfbench

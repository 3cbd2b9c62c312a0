// update_cluster: a 3-shard x 2-replica cluster wired in-process.
//
// A ClusterCoordinator runs over cloud::Channel replicas; each replica is
// its own CloudServer loaded from its own deployment copy on disk, with
// its own WAL sidecar (each append flushed, not fsynced). The default
// write quorum (every replica), background compaction and anti-entropy
// catch-up are on. Two closed-loop users run beside one owner, who
// streams one delta (two adds and one remove, on popular keywords) per
// ten completed queries through DataOwner::stream_update.
//
// Writes land beside reads on the same rows, and the cluster applies row
// and blob sub-deltas independently, so a query can meet a posting whose
// file blob has not landed yet ("aes_gcm_decrypt: blob too short"). That
// known race is retried by the user, counted on its own, and not fixed
// here. Live answers are checked against what no delta can change (base
// documents are never removed); once compaction and catch-up are idle,
// every replica is checked against the oracle over the final collection.
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "cluster/coordinator.h"
#include "store/deployment.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kShards = 3;
constexpr std::uint32_t kReplicas = 2;
constexpr std::size_t kQueriesPerDelta = 10;
constexpr int kRaceRetries = 8;
constexpr std::uint64_t kFirstAddedId = 1'000'000;

ir::CorpusGenOptions corpus_options(const Options& opt) {
  ir::CorpusGenOptions o;
  o.num_documents = opt.tiny ? 100 : 600;
  o.vocabulary_size = opt.tiny ? 60 : 300;
  o.zipf_exponent = 1.05;
  o.min_tokens = opt.tiny ? 40 : 100;
  o.max_tokens = opt.tiny ? 300 : 1500;
  o.injected.push_back(ir::InjectedKeyword{"network", o.num_documents, 0.35, 200});
  o.seed = derive(opt.seed, 50);
  return o;
}

/// PhaseMeter series of the owner's update latencies (queries are 0).
constexpr int kUpdateSeries = 1;

/// One owner delta: two fresh documents carrying popular keywords, and
/// (after the first) the removal of an earlier delta's document.
struct DeltaPlan {
  std::vector<ir::Document> adds;
  std::vector<sse::FileId> removes;
};

/// The `index`-th delta of a seeded stream. Added ids start at
/// `first_id`; only documents the stream itself added are ever removed.
DeltaPlan delta_plan(std::size_t index, const std::vector<std::string>& vocabulary,
                     std::uint64_t seed, std::uint64_t first_id) {
  Xoshiro256 rng(derive(seed, 1000 + index));
  const std::uint64_t popular = std::min<std::uint64_t>(8, vocabulary.size());
  DeltaPlan plan;
  for (std::uint64_t a = 0; a < 2; ++a) {
    std::string text;
    for (int p = 0; p < 3; ++p) {
      const std::string& word = vocabulary[rng.uniform_below(popular)];
      for (std::uint64_t n = 1 + rng.uniform_below(3); n > 0; --n) text += word + " ";
    }
    for (int f = 0; f < 20; ++f) text += vocabulary[rng.uniform_below(vocabulary.size())] + " ";
    const std::uint64_t id = first_id + 2 * index + a;
    plan.adds.push_back(ir::Document{ir::file_id(id), "delta" + std::to_string(id), text});
  }
  if (index > 0) plan.removes.push_back(ir::file_id(first_id + 2 * (index - 1) + 1));
  return plan;
}

/// Streams `plan` through `transport` with DataOwner::stream_update,
/// sampling the owner-observed latency into `meter` (kUpdateSeries). When
/// tracing, records an "update" root span and a replayed
/// cloud.build_update span.
void stream_one(cloud::DataOwner& owner, cloud::Transport& transport, const DeltaPlan& plan,
                Ledger& ledger, PhaseMeter& meter) {
  current_request() = new_request_id();
  ledger.attempt();
  if (tracer() != nullptr) {
    const std::uint64_t t = obs::now_ns();
    (void)owner.build_update(plan.adds, plan.removes);
    record("cloud.build_update", t, 0, true, "owner");
  }
  const std::uint64_t t0 = obs::now_ns();
  try {
    (void)owner.stream_update(transport, plan.adds, plan.removes);
    meter.sample(static_cast<double>(obs::now_ns() - t0) * 1e-6, kUpdateSeries);
    record("update", t0, 0, false, "owner");
  } catch (const std::exception& e) {
    ledger.fail("update_" + classify(e), e.what(), false);
  }
  current_request() = 0;
}

/// The owner's update latencies, printed in the run record but not gated:
/// their run-to-run spread follows host steal and the seeded delta
/// contents more than the program.
void update_values(const PhaseMeter& meter, Outcome& out) {
  out.detail["update_p50_ms"] = meter.latency_ms(0.50, kUpdateSeries);
  out.detail["update_p90_ms"] = meter.latency_ms(0.90, kUpdateSeries);
  meter.record(out, "update_", kUpdateSeries);
}

std::string replica_dir(const std::string& root, std::uint32_t r) {
  return root + "/replica" + std::to_string(r);
}

/// The wired cluster. Destroyed coordinator first (it joins its catch-up
/// worker), then the handler decorators, then the servers.
struct Served {
  std::unique_ptr<cloud::DataOwner> owner;
  std::vector<std::vector<std::unique_ptr<cloud::CloudServer>>> servers;  // [shard][replica]
  std::vector<std::vector<std::unique_ptr<TimedHandler>>> handlers;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  SetupTimes times;
};

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
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      store::save_cluster_deployment(built, kShards, replica_dir(root, r));
      store::save_leakage_audit(report.rsse_audit, replica_dir(root, r));
    }
    s->times.save_s = since(t);
  }
  cluster::ClusterManifest manifest = store::load_cluster_manifest(replica_dir(root, 0));
  manifest.replicas = kReplicas;
  std::vector<std::unique_ptr<cluster::ReplicaSet>> sets;
  const auto t = std::chrono::steady_clock::now();
  s->servers.resize(kShards);
  s->handlers.resize(kShards);
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    auto set = std::make_unique<cluster::ReplicaSet>();
    set->set_node_name("shard" + std::to_string(shard));
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      auto server = std::make_unique<cloud::CloudServer>();
      store::load_cluster_shard(replica_dir(root, r), shard, *server);
      server->enable_background_compaction();
      auto handler = std::make_unique<TimedHandler>(
          *server, "shard" + std::to_string(shard) + "/replica" + std::to_string(r),
          server.get());
      handler->set_swap_results(opt.inject_swap);
      set->add_replica(std::make_unique<cloud::Channel>(*handler));
      s->servers[shard].push_back(std::move(server));
      s->handlers[shard].push_back(std::move(handler));
    }
    sets.push_back(std::move(set));
  }
  s->times.load_s = since(t);
  s->coordinator = std::make_unique<cluster::ClusterCoordinator>(manifest, std::move(sets));
  cluster::CatchUpOptions catch_up;
  Served* raw = s.get();
  catch_up.install_snapshot = [raw](std::size_t shard, std::size_t replica,
                                    const cloud::SnapshotResponse& snapshot) {
    raw->servers[shard][replica]->install_snapshot(snapshot);
    return true;
  };
  s->coordinator->enable_catch_up(std::move(catch_up));
  enable_serve_profiler();
  {
    cloud::DataUser user(seeded_credentials(*s->owner, opt.seed, "user"), *s->coordinator);
    (void)user.ranked_search(first_keyword, kTopK);
  }
  return s;
}

/// What a live answer must satisfy whatever deltas it observed: every
/// file authenticates and matches the text the owner wrote, levels (from
/// each document's own text) do not increase, and no base document above
/// the k-th level is missing (base documents are never removed).
std::optional<std::string> check_live(const Oracle& base, const ir::Corpus& corpus,
                                      const ir::Analyzer& analyzer,
                                      const std::vector<std::string>& vocabulary,
                                      std::uint64_t seed, const std::string& term,
                                      const std::vector<cloud::RetrievedFile>& got) {
  if (got.size() > kTopK || got.size() < std::min(kTopK, base.matches(term)))
    return term + ": size " + std::to_string(got.size());
  std::set<std::uint64_t> seen;
  std::uint64_t previous = ~0ull;
  for (const cloud::RetrievedFile& f : got) {
    const std::uint64_t id = ir::value(f.document.id);
    std::uint64_t level = 0;
    if (id >= kFirstAddedId) {
      const std::uint64_t n = id - kFirstAddedId;
      const std::string text =
          delta_plan(n / 2, vocabulary, seed, kFirstAddedId).adds[n % 2].text;
      if (text != f.document.text) return term + ": added file " + std::to_string(id) + " differs";
      level = level_in_text(analyzer, base.quantizer(), term, text);
    } else {
      if (!corpus.contains(f.document.id) || corpus.by_id(f.document.id).text != f.document.text)
        return term + ": file " + std::to_string(id) + " differs from the collection";
      level = base.level(term, id);
    }
    if (level == 0) return term + ": non-match id " + std::to_string(id);
    if (level > previous) return term + ": levels increase at id " + std::to_string(id);
    if (!seen.insert(id).second) return term + ": duplicate id " + std::to_string(id);
    previous = level;
  }
  for (const auto& [id, level] : base.ranking(term))
    if ((got.size() < kTopK || level > previous) && !seen.contains(id))
      return term + ": base file " + std::to_string(id) + " above the boundary missing";
  return std::nullopt;
}

}  // namespace

Outcome run_update_cluster(const Options& opt) {
  SpanLog spans;  // outlives every thread that may record into it
  Outcome out;
  Ledger ledger;

  // ----- inputs (not set-up) -----
  const ir::Corpus corpus = ir::generate_corpus(corpus_options(opt));
  const ir::Analyzer analyzer;
  const std::vector<std::string> vocabulary = query_vocabulary(corpus, analyzer);
  std::vector<KeywordStream> streams = {KeywordStream(vocabulary, 1.1, derive(opt.seed, 60)),
                                        KeywordStream(vocabulary, 1.1, derive(opt.seed, 61))};
  const std::vector<std::string> probes =
      zipf_stream(vocabulary, opt.tiny ? 20 : 200, 1.1, derive(opt.seed, 70));
  const std::string root = opt.work_dir + "/update_cluster";

  // ----- set-up, repeated; the last cluster stays up -----
  SetupRecord setups;
  std::unique_ptr<Served> served = set_up_repeatedly(
      opt, root, setups, [&] { return set_up(opt, corpus, root, probes.front()); });
  cluster::ClusterCoordinator& coordinator = *served->coordinator;
  const cluster::ShardMap& shard_map = coordinator.shard_map();
  const cloud::UserCredentials creds = seeded_credentials(*served->owner, opt.seed, "user");
  const opse::ScoreQuantizer& quantizer = *served->owner->quantizer();
  const Oracle oracle(corpus, quantizer);
  const sse::TrapdoorGenerator trapdoors(creds.x, creds.y, creds.params.p_bits);
  const auto base_server = [&](const std::string& kw) -> const cloud::CloudServer& {
    return *served->servers[shard_map.shard_of_label(trapdoors.generate(kw).label)][0];
  };
  for (const std::string& term : vocabulary)
    if (base_server(term).index().row(served->owner->rsse().row_label(term)) == nullptr)
      throw Error("query keyword without an index row: " + term);

  // ----- fixed probe pass: correctness, warm-up and bytes per query -----
  {
    cloud::DataUser user(creds, coordinator);
    const std::uint64_t bytes0 = coordinator.stats().total_bytes();
    probe(user, probes, oracle, corpus, ledger);
    out.values["wire_bytes_per_query"] =
        static_cast<double>(coordinator.stats().total_bytes() - bytes0) /
        static_cast<double>(probes.size());
  }

  // ----- closed-loop users beside the streaming owner -----
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> races{0};
  std::size_t deltas = 0;  // owner-thread only
  // The owner sleeps until a client completes a multiple of
  // kQueriesPerDelta queries (the timeout only bounds how late it sees
  // the phase end).
  std::mutex owner_mutex;
  std::condition_variable owner_wake;
  TimedTransport owner_transport(coordinator, "cluster.update_call");
  const auto phase = [&](double seconds, PhaseMeter& meter) {
    const std::size_t completed0 = completed.load();
    const std::size_t deltas0 = deltas;
    meter.start();
    run_clients(streams.size() + 1, seconds, ledger,
                [&](std::size_t c, const std::atomic<bool>& stop) {
      if (c == streams.size()) {  // the owner
        for (;;) {
          const std::size_t due = completed0 + kQueriesPerDelta * (deltas - deltas0 + 1);
          {
            std::unique_lock lock(owner_mutex);
            while (!stop.load() && completed.load() < due)
              owner_wake.wait_for(lock, std::chrono::milliseconds(20));
          }
          if (stop.load()) return;
          stream_one(*served->owner, owner_transport,
                     delta_plan(deltas++, vocabulary, opt.seed, kFirstAddedId), ledger, meter);
        }
      }
      TimedTransport timed(coordinator, "cluster.query_call");
      cloud::DataUser user(creds, timed);
      const cloud::FileCrypter crypter(creds.file_master);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& kw = streams[c].next();
        current_request() = new_request_id();
        ledger.attempt();
        const std::uint64_t t0 = obs::now_ns();
        for (int attempt = 0;; ++attempt) {
          try {
            const auto got = user.ranked_search(kw, kTopK);
            meter.sample(static_cast<double>(obs::now_ns() - t0) * 1e-6);
            record("query", t0);
            if ((completed.fetch_add(1) + 1 - completed0) % kQueriesPerDelta == 0) {
              const std::lock_guard lock(owner_mutex);
              owner_wake.notify_one();
            }
            const double c0 = thread_cpu_seconds();
            if (tracer() != nullptr) {
              replay_client_steps(trapdoors, crypter, kw, TimedTransport::last_response());
              replay_row_scan(base_server(kw).index(), trapdoors.generate(kw));
            }
            if (auto wrong = check_live(oracle, corpus, analyzer, vocabulary, opt.seed, kw, got))
              ledger.fail("wrong_result", *wrong, true);
            meter.add_harness_cpu(thread_cpu_seconds() - c0);
          } catch (const std::exception& e) {
            if (is_empty_blob_race(e) && attempt < kRaceRetries) {
              races.fetch_add(1, std::memory_order_relaxed);
              ledger.note("empty_blob_race");
              std::this_thread::sleep_for(std::chrono::microseconds(250) * (1 << attempt));
              continue;
            }
            ledger.fail(classify(e), e.what(), false);
          }
          break;
        }
      }
      current_request() = 0;
    });
    meter.stop();
  };

  // The owner's updates share the queries' meter (and count towards the
  // CPU per operation).
  PhaseMeter measured, untraced;
  if (!opt.trace) {
    phase(opt.seconds, measured);
    latency_values(measured, out);
    update_values(measured, out);
  } else {
    phase(opt.seconds / 2, untraced);
    set_tracer(&spans);
    phase(opt.seconds / 2, measured);
    set_tracer(nullptr);
  }

  // ----- convergence, then every replica against the final collection -----
  coordinator.wait_for_catch_up_idle();
  std::uint64_t sealed = 0, compactions = 0, failed_attempts = 0, wal_bytes = 0;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    failed_attempts += coordinator.shard(shard).failed_attempts();
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      cloud::CloudServer& server = *served->servers[shard][r];
      server.wait_for_compaction_idle();
      sealed += server.segments().sealed_count();
      compactions += server.compactions_completed();
      wal_bytes += disk_bytes(
          store::wal_path(replica_dir(root, r) + "/shard" + std::to_string(shard)));
      if (server.segment_next_seq() != served->servers[shard][0]->segment_next_seq())
        ledger.fail("replica_divergence",
                    "shard" + std::to_string(shard) + " replicas at different sequences", true);
    }
  }
  ir::Corpus final_corpus = corpus;
  for (std::size_t d = 0; d < deltas; ++d) {
    DeltaPlan plan = delta_plan(d, vocabulary, opt.seed, kFirstAddedId);
    final_corpus.add(std::move(plan.adds[0]));
    if (d + 1 == deltas) final_corpus.add(std::move(plan.adds[1]));
  }
  const Oracle final_oracle(final_corpus, quantizer);
  const cloud::FileCrypter crypter(creds.file_master);
  cloud::DataUser user(creds, coordinator);
  std::vector<std::string> final_probes(vocabulary.begin(),
                                        vocabulary.begin() + std::min<std::size_t>(10, vocabulary.size()));
  for (const std::string& kw : zipf_stream(vocabulary, 10, 0.0, derive(opt.seed, 80)))
    final_probes.push_back(kw);
  for (const std::string& kw : final_probes) {
    ledger.attempt();
    try {
      if (auto wrong = check_answer(final_oracle, final_corpus, kw, user.ranked_search(kw, kTopK),
                                    kTopK))
        ledger.fail("final_wrong_result", "coordinator " + *wrong, true);
      const sse::Trapdoor trapdoor = trapdoors.generate(kw);
      const std::uint32_t shard = shard_map.shard_of_label(trapdoor.label);
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        const auto resp = served->servers[shard][r]->ranked_search(
            cloud::RankedSearchRequest{trapdoor, kTopK});
        std::vector<std::uint64_t> ids;
        for (const cloud::RankedFile& f : resp.files) {
          ids.push_back(ir::value(f.id));
          for (const auto& holder : served->servers[shard_map.shard_of_file(ids.back())]) {
            const auto blob = holder->files().find(ids.back());
            if (blob == holder->files().end() ||
                crypter.decrypt(f.id, blob->second).text != final_corpus.by_id(f.id).text)
              ledger.fail("final_wrong_result",
                          kw + ": replica blob of " + std::to_string(ids.back()) + " wrong", true);
          }
        }
        if (auto wrong = final_oracle.check(kw, ids, kTopK))
          ledger.fail("final_wrong_result",
                      "shard" + std::to_string(shard) + "/replica" + std::to_string(r) + " " +
                          kw + ": " + *wrong,
                      true);
      }
    } catch (const std::exception& e) {
      // Nothing is in flight any more: every error here is a wrong answer.
      ledger.fail("final_" + classify(e), e.what(), true);
    }
  }

  if (opt.trace) {
    std::vector<SpanRec> all = spans.spans();
    const std::map<std::string, std::string> query_parents = {
        {"sse.trapdoor", "query"},
        {"cloud.encode", "query"},
        {"cluster.query_call", "query"},
        {"cloud.decode", "query"},
        {"crypto.file_decrypt", "query"},
        {"cloud.handle", "cluster.query_call"},
        {"cloud.fetch", "cluster.query_call"},
        {"sse.search", "cloud.handle"},
        {"sse.entry_decrypt", "sse.search"}};
    const std::map<std::string, std::string> update_parents = {
        {"cloud.build_update", "update"},
        {"cluster.update_call", "update"},
        {"seg.update_apply", "cluster.update_call"}};
    const Waterfall queries = analyze(all, "query", query_parents);
    const Waterfall updates = analyze(all, "update", update_parents);
    report_trace(opt, all, queries, query_parents);
    std::fprintf(stderr, "\nupdate waterfall (update_cluster, traced):\n%s",
                 format_waterfall(updates, "update", update_parents).c_str());

    query_layer_values(queries, out);
    std::vector<double> overlay_us;
    for (const SpanRec& s : all)
      if (s.name == "cloud.handle" && s.detail == "overlay" && s.request != 0)
        overlay_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out.values["seg.overlay_query_us"] = mean(overlay_us);
    out.values["cloud.handle_us"] = queries.at("cloud.handle").span_us;
    out.values["cloud.response_bytes"] = queries.at("cluster.query_call").count;
    out.values["cluster.query_call_us"] = queries.at("cluster.query_call").span_us;
    out.values["cluster.query_overhead_us"] = queries.at("cluster.query_call").self_us;
    out.values["cluster.fetch_rpcs_per_query"] = queries.at("cloud.fetch").spans;
    out.values["cloud.build_update_ms"] = updates.at("cloud.build_update").span_us * 1e-3;
    out.values["cluster.update_call_ms"] = updates.at("cluster.update_call").span_us * 1e-3;
    out.values["seg.update_apply_us"] = updates.at("seg.update_apply").span_us;
    out.values["obs.trace_overhead_pct"] = trace_overhead_pct(untraced, measured);
    setup_layer_values(setups.last(), {{served->owner.get(), &corpus}}, out);
    latency_values(measured, out);
    update_values(measured, out);
  }
  out.values["seg.wal_bytes_per_update"] =
      static_cast<double>(wal_bytes) / static_cast<double>(std::max<std::size_t>(1, deltas));
  out.values["seg.sealed_segments"] = static_cast<double>(sealed);
  out.values["seg.compactions"] = static_cast<double>(compactions);
  out.values["cluster.failed_attempts"] = static_cast<double>(failed_attempts);
  out.values["cluster.empty_blob_races"] = static_cast<double>(races.load());
  out.detail["deltas_streamed"] = static_cast<double>(deltas);

  served.reset();
  remove_deployment(root);
  finish_run(setups, corpus.total_bytes(), ledger, out);
  return out;
}

}  // namespace perfbench

// The three workloads and the steps they share.
//
//   search_tcp      one owner at paper scale in a one-namespace tenant
//                   deployment served over TCP loopback, two closed-loop
//                   users (the ranked row scan dominates)
//   tenant_open     eight small tenants behind the reactor, open-loop
//                   Poisson arrivals (reactor, tenant layer and codec
//                   dominate); a diagnostic run by hand, not listed in
//                   BENCHMARK.json: its figures follow the host's
//                   contention too closely to gate on (README.md)
//   update_cluster  a 3-shard x 2-replica cluster, two closed-loop users
//                   beside an owner streaming deltas (overlay, WAL,
//                   fan-out and fetch-fill on the path)
//
// Each workload serves the system the way `rsse serve` does by default:
// rank cache off, background compaction on, the global stage profiler on,
// a reactor with one loop and four workers, full-nu padding and a
// one-thread build.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cloud/data_owner.h"
#include "cloud/file_store.h"
#include "obs/cost.h"
#include "obs/profiler.h"
#include "harness.h"
#include "sse/trapdoor_gen.h"
#include "tracing.h"

namespace perfbench {

Outcome run_search_tcp(const Options& opt);
Outcome run_tenant_open(const Options& opt);
Outcome run_update_cluster(const Options& opt);

/// Every ranked search asks for the top 10.
inline constexpr std::size_t kTopK = 10;

/// Replays the client-side steps of a query of `keyword` that was answered
/// with `response` (trapdoor, request encode, response decode, file
/// decrypt) on the same inputs, as replayed spans of the current request.
void replay_client_steps(const sse::TrapdoorGenerator& trapdoors,
                         const cloud::FileCrypter& crypter, const std::string& keyword,
                         const Bytes& response);

/// Replays the server's ranked row scan (RsseScheme::search) and the
/// per-entry decrypt of the same row, as replayed spans.
void replay_row_scan(const sse::SecureIndex& index, const sse::Trapdoor& trapdoor);

/// Replays a ranked search that a tenant host answered: the same request
/// solo on the tenant's own server (a replayed cloud.handle span, which
/// tenant.handle's self time, the queue wait, leaves out), then its row scan.
void replay_solo_handle(const cloud::CloudServer& server, const sse::Trapdoor& trapdoor);

/// Parents of the spans of a ranked search through a tenant host over TCP.
extern const std::map<std::string, std::string> kTenantQueryParents;

/// The breakdown of one set-up (per-layer metrics of a traced run).
struct SetupTimes {
  double outsource_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  obs::cost::Snapshot cost;  ///< crypto work of the outsourcing
  sse::RsseScheme::BuildStats build;
};

/// Readings taken when a set-up starts.
struct SetupClock {
  std::chrono::steady_clock::time_point wall = std::chrono::steady_clock::now();
  double cpu_s = process_cpu_seconds();
  HostTicks host = HostTicks::now();
};

/// A run's set-ups: the wall time, process CPU time and host steal share
/// of each, the on-disk deployment bytes, and the last one's breakdown.
class SetupRecord {
 public:
  /// Records a set-up that started at `started` and has just answered its
  /// first query, with one line of it on stderr.
  void add(const SetupClock& started, const SetupTimes& times, std::uint64_t stored_bytes,
           const std::string& workload);

  /// setup_s: the median wall time of the set-ups.
  [[nodiscard]] double setup_s() const;
  [[nodiscard]] const SetupTimes& last() const { return last_; }
  [[nodiscard]] std::uint64_t stored_bytes() const { return stored_bytes_; }
  /// Every set-up's wall time, CPU time and steal, into the run record.
  void fill(Outcome& out) const;

 private:
  std::vector<double> wall_s_, cpu_s_, steal_;
  std::uint64_t stored_bytes_ = 0;
  SetupTimes last_;
};

/// Set-ups a run makes: one when tracing or at self-test sizes.
int setup_count(const Options& opt);

/// Deletes a deployment directory and its WAL sidecar.
void remove_deployment(const std::string& dir);

/// Sets the workload up setup_count(opt) times, each time from an empty
/// `dir`, and returns the last deployment, still serving. `set_up` makes
/// one deployment (a unique_ptr to a struct whose `times` it fills in)
/// through to its first answered query; corpus generation is input and
/// happens before.
template <class SetUp>
auto set_up_repeatedly(const Options& opt, const std::string& dir, SetupRecord& record,
                       const SetUp& set_up) -> decltype(set_up()) {
  decltype(set_up()) served;
  for (int i = 0; i < setup_count(opt); ++i) {
    served.reset();
    remove_deployment(dir);
    // Every set-up outsources unprofiled, as `rsse build` does; set_up
    // turns the profiler on where it starts serving, as `rsse serve` does.
    obs::Profiler::global().set_enabled(false);
    const SetupClock started;
    served = set_up();
    record.add(started, served->times, disk_bytes(dir), opt.workload);
  }
  return served;
}

/// Closes a run once its deployment is down and deleted: setup_s, stored
/// bytes per `input_bytes`, the set-up record and cost counters, peak
/// memory, the ledger's counts, and tenant.sheds (quota sheds among them).
void finish_run(const SetupRecord& setups, std::uint64_t input_bytes, const Ledger& ledger,
                Outcome& out);

/// The fixed probe pass: each keyword once through `user`, every answer
/// checked against the oracle.
void probe(cloud::DataUser& user, const std::vector<std::string>& keywords,
           const Oracle& oracle, const ir::Corpus& corpus, Ledger& ledger);

/// An owner and the corpus it outsourced.
using OwnedCorpus = std::pair<const cloud::DataOwner*, const ir::Corpus*>;

/// Per-layer values every workload reports from its setup: the build
/// breakdown, replays of InvertedIndex::build and RsseScheme::build_index
/// on the same corpora, and the store timings.
void setup_layer_values(const SetupTimes& t, const std::vector<OwnedCorpus>& owned,
                        Outcome& out);

/// Runs `clients` threads for `seconds`; each runs body(client, stop) and
/// must return once `stop` is set. An exception escaping a body is
/// recorded as a failure.
void run_clients(std::size_t clients, double seconds, Ledger& ledger,
                 const std::function<void(std::size_t, const std::atomic<bool>&)>& body);

/// Per-layer values of the query waterfall shared by every workload:
/// client steps, the row scan, entry decrypt, shares and the remainder.
void query_layer_values(const Waterfall& w, Outcome& out);

/// Per-layer values of a waterfall over kTenantQueryParents: those of
/// query_layer_values, the RPC and its overhead, the host's time and its
/// queue wait, the solo server handle, response bytes, and the reactor's
/// in-flight peak on `host`.
void tenant_query_values(const Waterfall& w, const cloud::RequestHandler& host, Outcome& out);

/// Adds the end-to-end latency and CPU values of a measured query phase,
/// with its tail, sample counts, percentiles and the host
/// environment in the run record.
void latency_values(const PhaseMeter& queries, Outcome& out);

/// obs.trace_overhead_pct: the traced phase's median latency over the
/// untraced phase's, as a percentage change.
double trace_overhead_pct(const PhaseMeter& untraced, const PhaseMeter& traced);

/// The reactor's admitted-but-unanswered high-water mark
/// (rsse_net_in_flight_peak) in the handler's registry.
double in_flight_peak(const cloud::RequestHandler& handler);

/// Writes the spans to the run's span file and the query waterfall to
/// stderr.
void report_trace(const Options& opt, const std::vector<SpanRec>& spans,
                  const Waterfall& queries,
                  const std::map<std::string, std::string>& query_parents);

}  // namespace perfbench

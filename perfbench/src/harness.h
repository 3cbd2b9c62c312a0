// Shared machinery of the serving benchmark: options, seeded inputs, the
// tie-aware plaintext oracle, sample statistics, process resource
// readings and the result record every workload fills in.
//
// Everything a workload feeds the system derives from the workload seed:
// the corpus, the owner's keys, the query streams, the arrival schedule
// and the update deltas. The system under test receives only those
// generated inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cloud/data_owner.h"
#include "cloud/data_user.h"
#include "ir/corpus_gen.h"
#include "net/server.h"
#include "tenant/host.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

using namespace rsse;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         ///< self-test sizes
  bool inject_swap = false;  ///< self-test: a decorator swaps two results
  std::string out_dir;       ///< span files and run records
  std::string work_dir;      ///< on-disk deployments of this run
};

/// What a workload run hands back to main(). `values` holds the metrics
/// by catalogue name (main.cpp): end-to-end ones from an untraced run,
/// per-layer ones from a traced run.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, std::uint64_t> failures_by_kind;
  std::map<std::string, double> detail;  ///< sample counts, environment, counters
  std::vector<std::string> wrong;        ///< first few wrong-result descriptions
};

/// Thread-safe failure and wrong-result bookkeeping shared by a run's
/// client threads.
class Ledger {
 public:
  void attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  /// Records a failed operation of `kind`; `wrong` marks a wrong result
  /// (which also makes the run incorrect).
  void fail(const std::string& kind, const std::string& what, bool wrong);
  /// Counts a transient error the client retried past (not a failure).
  void note(const std::string& kind);
  void fill(Outcome& out) const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  mutable std::mutex mutex_;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::map<std::string, std::uint64_t> kinds_;
  std::map<std::string, std::uint64_t> retried_;
  std::vector<std::string> wrong_;
};

/// Classifies an exception thrown by a system call into a failure kind.
std::string classify(const std::exception& e);

/// True for the known overlay/blob-put race ("blob too short").
bool is_empty_blob_race(const std::exception& e);

// ----- seeded inputs -----

/// Deterministic 64-bit value for (seed, stream tag).
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

/// Deterministic bytes for (seed, tag) — key material of a seeded owner.
Bytes derive_bytes(std::uint64_t seed, std::uint64_t tag, std::size_t n);

/// An owner whose x/y/z keys and file master derive from `seed`, built
/// through the restoring constructor.
std::unique_ptr<cloud::DataOwner> seeded_owner(std::uint64_t seed);

/// Credentials of one enrolled user of `owner`, with a seeded user key.
cloud::UserCredentials seeded_credentials(const cloud::DataOwner& owner,
                                          std::uint64_t seed, const std::string& name);

/// Query vocabulary: indexed terms that are fixed points of keyword
/// normalization (a stemmed term fed back through the analyzer may stem
/// again and miss its row), sorted by document frequency, most popular
/// first (ties by term).
std::vector<std::string> query_vocabulary(const ir::Corpus& corpus,
                                          const ir::Analyzer& analyzer);

/// A seeded Zipf(`exponent`) keyword stream over `vocabulary` ranks, drawn
/// one keyword at a time. `vocabulary` must outlive the stream.
class KeywordStream {
 public:
  KeywordStream(const std::vector<std::string>& vocabulary, double exponent, std::uint64_t seed)
      : vocabulary_(&vocabulary), zipf_(vocabulary.size(), exponent), rng_(seed) {}

  const std::string& next() { return (*vocabulary_)[zipf_.sample(rng_)]; }

 private:
  const std::vector<std::string>* vocabulary_;
  ZipfSampler zipf_;
  Xoshiro256 rng_;
};

/// The first `n` keywords of KeywordStream(vocabulary, exponent, seed).
std::vector<std::string> zipf_stream(const std::vector<std::string>& vocabulary,
                                     std::size_t n, double exponent, std::uint64_t seed);

// ----- the oracle -----

/// The ranking contract of the differential test, over a plaintext
/// engine: right size, only real matches, no duplicates, per-rank
/// quantized level equal to the exact ranking's level at that rank, and
/// every file strictly above the k-th level present. Ties within a level
/// may come in any order.
class Oracle {
 public:
  Oracle(const ir::Corpus& corpus, const opse::ScoreQuantizer& quantizer);

  /// nullopt when `got` (ids, best first) is a correct top-k answer for
  /// the normalized `term`; otherwise what is wrong.
  [[nodiscard]] std::optional<std::string> check(const std::string& term,
                                                 const std::vector<std::uint64_t>& got,
                                                 std::size_t k) const;

  /// Quantized level of `id` for `term` (0 when `id` does not match).
  [[nodiscard]] std::uint64_t level(const std::string& term, std::uint64_t id) const;

  /// Number of files matching `term`.
  [[nodiscard]] std::size_t matches(const std::string& term) const;

  /// The exact ranking of `term` as (id, level), best first.
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranking(
      const std::string& term) const;

  [[nodiscard]] const opse::ScoreQuantizer& quantizer() const { return quantizer_; }

 private:
  struct Entry {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked;  // (id, level)
    std::map<std::uint64_t, std::uint64_t> level;
  };
  const Entry& entry(const std::string& term) const;

  opse::ScoreQuantizer quantizer_;
  std::map<std::string, Entry> terms_;
};

/// Checks a user's decrypted answer: ids against the oracle, and every
/// returned document byte-equal to the collection's. nullopt when right.
std::optional<std::string> check_answer(const Oracle& oracle, const ir::Corpus& corpus,
                                        const std::string& term,
                                        const std::vector<cloud::RetrievedFile>& got,
                                        std::size_t k);

/// Quantized level of `term` in a document, computed from its own text.
std::uint64_t level_in_text(const ir::Analyzer& analyzer,
                            const opse::ScoreQuantizer& quantizer,
                            const std::string& term, const std::string& text);

// ----- statistics and resources -----

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]); 0 when empty.
double percentile(std::vector<double> sample, double q);

/// Median of an unsorted sample.
inline double median(std::vector<double> sample) { return percentile(std::move(sample), 0.5); }

/// Mean of a sample; 0 when empty.
double mean(const std::vector<double>& sample);

/// Process user+sys CPU seconds so far.
double process_cpu_seconds();

/// Calling thread's CPU seconds so far.
double thread_cpu_seconds();

/// Peak resident set of the process, MiB.
double peak_rss_mb();

/// Total size of the regular files under `path` (a file or a directory).
std::uint64_t disk_bytes(const std::string& path);

/// Host-wide CPU ticks so far, from the aggregate line of /proc/stat.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;

  static HostTicks now();
};

/// Share of the host's CPU time stolen between two readings (0 when
/// /proc/stat is unreadable or no tick passed).
double steal_share(const HostTicks& from, const HostTicks& to);

/// Measures one phase: latency samples (of one or more operation kinds),
/// completed operations, and process CPU less the CPU the benchmark's own
/// checks spent, all over the whole phase; and the host's steal share in
/// fixed windows (from /proc/stat).
///
/// The figures count every sample of the phase. A median shrugs off a
/// steal burst that slows a minority of the requests, and picking the
/// least-stolen windows instead makes the figures depend on which part of
/// the phase the host left alone: update_cluster's overlay grows through
/// the phase, and over five seeds its windowed median latency spread 0.16
/// (quartile distance over median) against 0.06 for the whole phase;
/// search_tcp's spread 0.05 against 0.03. The per-window steal goes to
/// stderr, and its largest value, the phase's steal share, online CPUs and
/// load average to the run record, so a burst can be told from a
/// regression.
class PhaseMeter {
 public:
  static constexpr double kWindowSeconds = 0.25;

  PhaseMeter() = default;
  ~PhaseMeter() { stop(); }
  PhaseMeter(const PhaseMeter&) = delete;
  PhaseMeter& operator=(const PhaseMeter&) = delete;

  void start();
  void stop();
  /// One completed operation of kind `series` with its latency (thread-safe).
  void sample(double latency_ms, int series = 0);
  /// CPU the calling benchmark code spent outside the system (thread-safe).
  void add_harness_cpu(double seconds);

  /// The `q`-quantile latency of `series`.
  [[nodiscard]] double latency_ms(double q, int series = 0) const;
  /// The system's CPU per completed operation, ms (after stop()).
  [[nodiscard]] double cpu_ms_per_op() const;
  /// Sample counts, percentiles and the host environment of `series`, into
  /// the run record under `prefix`.
  void record(Outcome& out, const std::string& prefix, int series = 0) const;

 private:
  struct Boundary {
    double cpu_s = 0.0;
    double harness_s = 0.0;
    std::uint64_t ops = 0;
    HostTicks host;
  };
  struct Sample {
    double ms = 0.0;
    int series = 0;
  };
  Boundary now_boundary() const;
  void sampler();
  /// Latencies of `series`. Caller holds mutex_.
  std::vector<double> latencies(int series) const;

  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> harness_ns_{0};
  mutable std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::vector<Sample> samples_;
  Boundary start_boundary_;
  std::vector<HostTicks> windows_;  // host ticks at start, then at each window end
  Boundary end_;                    // at stop
  std::thread thread_;
};

/// Seconds since `t0` on the steady clock.
inline double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The engine configuration `rsse serve` uses by default: reactor with one
/// event loop and four workers.
net::ServerOptions serve_options();

/// The host configuration `rsse serve` uses by default on a tenant
/// deployment: four scheduler workers, fair (DWRR) scheduling.
tenant::TenantHostOptions host_options();

/// Turns on the global stage profiler with the request-path stages
/// pre-registered, as `rsse serve` does.
void enable_serve_profiler();

/// Build options `rsse build` uses by default: one thread, full-nu padding.
sse::RsseScheme::BuildOptions build_options();

}  // namespace perfbench

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "cloud/auth.h"
#include "ir/inverted_index.h"
#include "ir/scoring.h"
#include "obs/profiler.h"
#include "util/errors.h"

namespace perfbench {

void Ledger::fail(const std::string& kind, const std::string& what, bool wrong) {
  const std::lock_guard lock(mutex_);
  ++failed_;
  ++kinds_[kind];
  if (wrong) {
    correct_ = false;
    if (wrong_.size() < 8) wrong_.push_back(what);
  }
}

void Ledger::note(const std::string& kind) {
  const std::lock_guard lock(mutex_);
  ++retried_[kind];
}

void Ledger::fill(Outcome& out) const {
  const std::lock_guard lock(mutex_);
  out.attempted += attempted_.load();
  out.failed += failed_;
  out.correct = out.correct && correct_;
  for (const auto& [kind, n] : kinds_) out.failures_by_kind[kind] += n;
  for (const auto& [kind, n] : retried_) out.detail["retried." + kind] += static_cast<double>(n);
  out.wrong.insert(out.wrong.end(), wrong_.begin(), wrong_.end());
}

bool is_empty_blob_race(const std::exception& e) {
  return std::strstr(e.what(), "aes_gcm_decrypt: blob too short") != nullptr;
}

std::string classify(const std::exception& e) {
  if (is_empty_blob_race(e)) return "empty_blob_race";
  if (dynamic_cast<const QuotaExceeded*>(&e)) return "quota_shed";
  if (dynamic_cast<const Overloaded*>(&e)) return "overloaded_shed";
  if (dynamic_cast<const DeadlineExceeded*>(&e)) return "deadline";
  if (dynamic_cast<const CryptoError*>(&e)) return "crypto_error";
  if (dynamic_cast<const IntegrityError*>(&e)) return "integrity_error";
  if (dynamic_cast<const ParseError*>(&e)) return "parse_error";
  if (dynamic_cast<const ProtocolError*>(&e)) return "error_frame";
  return "exception";
}

// ----- seeded inputs -----

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull ^ (tag + 0x632BE59BD9B4E019ull);
  splitmix64(state);
  return splitmix64(state);
}

Bytes derive_bytes(std::uint64_t seed, std::uint64_t tag, std::size_t n) {
  Xoshiro256 rng(derive(seed, tag));
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

std::unique_ptr<cloud::DataOwner> seeded_owner(std::uint64_t seed) {
  sse::MasterKey key;
  const std::size_t key_bytes = key.params.key_bits / 8;
  key.x = derive_bytes(seed, 1, key_bytes);
  key.y = derive_bytes(seed, 2, key_bytes);
  key.z = derive_bytes(seed, 3, key_bytes);
  return std::make_unique<cloud::DataOwner>(std::move(key), derive_bytes(seed, 4, 32),
                                            std::nullopt);
}

cloud::UserCredentials seeded_credentials(const cloud::DataOwner& owner,
                                          std::uint64_t seed, const std::string& name) {
  const Bytes user_key = derive_bytes(seed, 5, 32);
  return cloud::AuthorizationService::open(user_key, name,
                                           owner.enroll_user(user_key, name));
}

std::vector<std::string> query_vocabulary(const ir::Corpus& corpus,
                                          const ir::Analyzer& analyzer) {
  const auto index = ir::InvertedIndex::build(corpus, analyzer);
  std::vector<std::pair<std::uint64_t, std::string>> ranked;
  for (const std::string& term : index.terms())
    if (analyzer.normalize_keyword(term) == term)
      ranked.emplace_back(index.document_frequency(term), term);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& [df, term] : ranked) out.push_back(std::move(term));
  return out;
}

std::vector<std::string> zipf_stream(const std::vector<std::string>& vocabulary,
                                     std::size_t n, double exponent, std::uint64_t seed) {
  KeywordStream stream(vocabulary, exponent, seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(stream.next());
  return out;
}

// ----- the oracle -----

Oracle::Oracle(const ir::Corpus& corpus, const opse::ScoreQuantizer& quantizer)
    : quantizer_(quantizer) {
  const ir::Analyzer analyzer;
  const auto index = ir::InvertedIndex::build(corpus, analyzer);
  for (const std::string& term : index.terms()) {
    Entry& e = terms_[term];
    for (const ir::ScoredPosting& p : index.ranked_postings(term)) {
      const std::uint64_t level = quantizer_.quantize(p.score);
      e.ranked.emplace_back(ir::value(p.file), level);
      e.level.emplace(ir::value(p.file), level);
    }
  }
}

const Oracle::Entry& Oracle::entry(const std::string& term) const {
  static const Entry kEmpty;
  const auto it = terms_.find(term);
  return it == terms_.end() ? kEmpty : it->second;
}

std::uint64_t Oracle::level(const std::string& term, std::uint64_t id) const {
  const Entry& e = entry(term);
  const auto it = e.level.find(id);
  return it == e.level.end() ? 0 : it->second;
}

std::size_t Oracle::matches(const std::string& term) const { return entry(term).ranked.size(); }

const std::vector<std::pair<std::uint64_t, std::uint64_t>>& Oracle::ranking(
    const std::string& term) const {
  return entry(term).ranked;
}

std::optional<std::string> Oracle::check(const std::string& term,
                                         const std::vector<std::uint64_t>& got,
                                         std::size_t k) const {
  const Entry& e = entry(term);
  const std::size_t want = k == 0 ? e.ranked.size() : std::min(k, e.ranked.size());
  if (got.size() != want)
    return "size " + std::to_string(got.size()) + " != " + std::to_string(want);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto it = e.level.find(got[i]);
    if (it == e.level.end()) return "non-match id " + std::to_string(got[i]);
    if (!seen.insert(got[i]).second) return "duplicate id " + std::to_string(got[i]);
    if (it->second != e.ranked[i].second)
      return "rank " + std::to_string(i) + " at level " + std::to_string(it->second) +
             ", want " + std::to_string(e.ranked[i].second);
  }
  if (!got.empty() && got.size() < e.ranked.size()) {
    const std::uint64_t boundary = e.level.at(got.back());
    for (const auto& [id, level] : e.ranked)
      if (level > boundary && !seen.contains(id))
        return "id " + std::to_string(id) + " above the top-k boundary missing";
  }
  return std::nullopt;
}

std::optional<std::string> check_answer(const Oracle& oracle, const ir::Corpus& corpus,
                                        const std::string& term,
                                        const std::vector<cloud::RetrievedFile>& got,
                                        std::size_t k) {
  std::vector<std::uint64_t> ids;
  ids.reserve(got.size());
  for (const cloud::RetrievedFile& f : got) {
    ids.push_back(ir::value(f.document.id));
    if (!corpus.contains(f.document.id) ||
        corpus.by_id(f.document.id).text != f.document.text)
      return "file " + std::to_string(ids.back()) + " content differs from the collection";
  }
  if (auto wrong = oracle.check(term, ids, k)) return term + ": " + *wrong;
  return std::nullopt;
}

std::uint64_t level_in_text(const ir::Analyzer& analyzer,
                            const opse::ScoreQuantizer& quantizer,
                            const std::string& term, const std::string& text) {
  const std::vector<std::string> terms = analyzer.analyze(text);
  const auto tf = static_cast<std::uint32_t>(std::count(terms.begin(), terms.end(), term));
  if (tf == 0) return 0;
  return quantizer.quantize(
      ir::score_single_keyword(tf, static_cast<std::uint32_t>(terms.size())));
}

// ----- statistics and resources -----

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  const std::size_t index = rank == 0 ? 0 : std::min(rank, sample.size()) - 1;
  std::nth_element(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(index),
                   sample.end());
  return sample[index];
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t disk_bytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  if (fs::is_regular_file(path)) return fs::file_size(path);
  if (!fs::is_directory(path)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(path))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

HostTicks HostTicks::now() {
  // Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
  // softirq steal (guest time is already folded into user).
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t fields[8] = {};
  for (std::uint64_t& v : fields)
    if (!(in >> v)) return HostTicks{};
  HostTicks t;
  for (const std::uint64_t v : fields) t.total += v;
  t.steal = fields[7];
  return t;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) / static_cast<double>(to.total - from.total);
}

void PhaseMeter::start() {
  start_ = std::chrono::steady_clock::now();
  start_boundary_ = now_boundary();
  windows_.push_back(start_boundary_.host);
  thread_ = std::thread([this] { sampler(); });
}

void PhaseMeter::stop() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  end_ = now_boundary();
}

void PhaseMeter::sample(double latency_ms, int series) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard lock(mutex_);
  samples_.push_back(Sample{latency_ms, series});
}

void PhaseMeter::add_harness_cpu(double seconds) {
  harness_ns_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9), std::memory_order_relaxed);
}

PhaseMeter::Boundary PhaseMeter::now_boundary() const {
  return Boundary{process_cpu_seconds(),
                  static_cast<double>(harness_ns_.load(std::memory_order_relaxed)) * 1e-9,
                  ops_.load(std::memory_order_relaxed), HostTicks::now()};
}

void PhaseMeter::sampler() {
  std::unique_lock lock(mutex_);
  for (std::size_t w = 1;; ++w) {
    const auto end =
        start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(kWindowSeconds * static_cast<double>(w)));
    if (stop_cv_.wait_until(lock, end, [this] { return stopping_; })) return;
    windows_.push_back(HostTicks::now());
  }
}

std::vector<double> PhaseMeter::latencies(int series) const {
  std::vector<double> out;
  for (const Sample& s : samples_)
    if (s.series == series) out.push_back(s.ms);
  return out;
}

double PhaseMeter::latency_ms(double q, int series) const {
  const std::lock_guard lock(mutex_);
  return percentile(latencies(series), q);
}

double PhaseMeter::cpu_ms_per_op() const {
  const std::lock_guard lock(mutex_);
  const Boundary& a = start_boundary_;
  if (end_.ops <= a.ops) return 0.0;
  return (end_.cpu_s - a.cpu_s - (end_.harness_s - a.harness_s)) * 1e3 /
         static_cast<double>(end_.ops - a.ops);
}

void PhaseMeter::record(Outcome& out, const std::string& prefix, int series) const {
  const std::lock_guard lock(mutex_);
  const std::vector<double> all = latencies(series);
  const auto beyond = [](std::size_t n, double q) {
    return static_cast<double>(n) - std::ceil(q * static_cast<double>(n));
  };
  out.detail[prefix + "samples"] = static_cast<double>(all.size());
  out.detail[prefix + "samples_beyond_p90"] = beyond(all.size(), 0.90);
  out.detail[prefix + "samples_beyond_p99"] = beyond(all.size(), 0.99);
  out.detail[prefix + "p90_ms"] = percentile(all, 0.90);
  out.detail[prefix + "p95_ms"] = percentile(all, 0.95);

  // Steal per window on stderr, its largest value and the phase's share in
  // the record, so that a burst can be told from a regression.
  std::fprintf(stderr, "%ssteal per %.2g s window, %%:", prefix.c_str(), kWindowSeconds);
  double largest = 0.0;
  for (std::size_t w = 0; w + 1 < windows_.size(); ++w) {
    const double share = steal_share(windows_[w], windows_[w + 1]);
    largest = std::max(largest, share);
    std::fprintf(stderr, " %.1f", 100.0 * share);
  }
  std::fprintf(stderr, "\n");
  out.detail[prefix + "env_steal_share_max_window"] = largest;
  out.detail[prefix + "env_steal_share"] = steal_share(start_boundary_.host, end_.host);
  double load1 = 0.0;
  std::ifstream("/proc/loadavg") >> load1;
  out.detail[prefix + "env_nproc"] = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  out.detail[prefix + "env_loadavg_1m"] = load1;
}

net::ServerOptions serve_options() {
  net::ServerOptions options;
  options.reactor = true;
  options.reactor_threads = 1;
  options.workers = 4;
  return options;
}

tenant::TenantHostOptions host_options() {
  tenant::TenantHostOptions options;
  options.scheduler.workers = 4;
  options.scheduler.fair = true;
  return options;
}

void enable_serve_profiler() {
  obs::Profiler& profiler = obs::Profiler::global();
  for (const char* name : {"server/parse", "server/rank", "server/serialize"})
    profiler.stage(name);
  profiler.set_enabled(true);
}

sse::RsseScheme::BuildOptions build_options() {
  sse::RsseScheme::BuildOptions options;
  options.num_threads = 1;
  options.padding = sse::PaddingMode::kFullNu;
  return options;
}

}  // namespace perfbench

// The benchmark's own tracing: spans recorded in memory from the
// benchmark's code, never from inside the system under test.
//
// Two decorators sit on the system's public seams:
//   * TimedTransport wraps a cloud::Transport (the client's view of an
//     RPC: net.rpc over TCP, cluster.*_call through a coordinator);
//   * TimedHandler wraps a cloud::RequestHandler (the serving side:
//     cloud.handle, tenant.handle, cloud.fetch, seg.update_apply).
// Steps without a seam (trapdoor generation, request encode, response
// decode, file decrypt, the row scan, entry decrypt) are timed by calling
// the same public functions again on the same inputs; those spans are
// marked `replay`.
//
// Spans of one operation share a request id. Across the TCP hop and into
// in-process replicas the id rides in the trace context the transports
// already propagate: TimedTransport issues the call with a recorder whose
// trace id is the request id, and TimedHandler reads it back and calls
// the wrapped handler untraced, so the system records no spans of its own.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/channel.h"
#include "cloud/cloud_server.h"
#include "cloud/handler.h"
#include "obs/trace.h"

namespace perfbench {

using namespace rsse;

/// One recorded span.
struct SpanRec {
  std::string name;
  std::string node;
  std::uint64_t request = 0;  ///< shared by every span of one operation
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< resolved by analyze() for cross-thread spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t count = 0;    ///< work items inside (entries, files, bytes)
  bool replay = false;        ///< timed by re-running the step on the same inputs
  std::string detail;         ///< e.g. "overlay" on a handler span
};

/// Thread-safe in-memory span store.
class SpanLog {
 public:
  /// Stores `rec` under a fresh id.
  void add(SpanRec rec);
  [[nodiscard]] std::vector<SpanRec> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;
  std::uint64_t next_id_ = 1;
};

/// Writes spans as JSON lines to `path`.
void write_spans(const std::string& path, const std::vector<SpanRec>& spans);

/// The active span store, or null when tracing is off.
SpanLog* tracer();
void set_tracer(SpanLog* log);

/// The request id of the operation the calling thread is issuing (0 = none).
std::uint64_t& current_request();

/// A fresh process-unique request id.
std::uint64_t new_request_id();

/// Records [start_ns, now) as span `name` of the current request.
void record(const char* name, std::uint64_t start_ns, std::uint64_t count = 0,
            bool replay = false, const std::string& node = "client");

/// Client-side decorator: times every call as span `name` of the
/// current request.
class TimedTransport final : public cloud::Transport {
 public:
  TimedTransport(cloud::Transport& inner, const char* name) : inner_(inner), name_(name) {}

  using cloud::Transport::call;
  Bytes call(cloud::MessageType type, BytesView request, const Deadline& deadline) override;
  Bytes call(cloud::MessageType type, BytesView request, const Deadline& deadline,
             obs::TraceRecorder* trace, std::uint64_t parent_span_id) override;

  /// The response of the calling thread's last traced call (for replays).
  static const Bytes& last_response();

 private:
  cloud::Transport& inner_;
  const char* name_;
};

/// Server-side decorator: times every handle() under the request id the
/// transport propagated. `server`, when given, is the CloudServer behind
/// `inner` (handler spans then note a non-empty dynamic overlay).
class TimedHandler final : public cloud::RequestHandler {
 public:
  TimedHandler(const cloud::RequestHandler& inner, std::string node,
               const cloud::CloudServer* server = nullptr)
      : inner_(inner), node_(std::move(node)), server_(server) {}

  /// Self-test hook: swap the first and last file of every ranked answer.
  void set_swap_results(bool on) { swap_ = on; }

  [[nodiscard]] Bytes handle(cloud::MessageType type, BytesView payload) const override;
  [[nodiscard]] Bytes handle(cloud::MessageType type, BytesView payload,
                             const obs::TraceContext& ctx,
                             std::vector<obs::Span>* spans) const override;
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() const override {
    return inner_.metrics_registry();
  }

 private:
  Bytes run(cloud::MessageType type, BytesView payload, std::uint64_t request) const;

  const cloud::RequestHandler& inner_;
  std::string node_;
  const cloud::CloudServer* server_;
  bool swap_ = false;
};

/// Per-layer view of a set of traced operations rooted at `root` spans.
struct Waterfall {
  struct Layer {
    double total_us = 0.0;   ///< mean summed duration per root operation
    double self_us = 0.0;    ///< mean self time per root operation
    double span_us = 0.0;    ///< mean duration of one span
    double spans = 0.0;      ///< mean spans per root operation
    double count = 0.0;      ///< mean summed work items per root operation
  };
  std::size_t roots = 0;
  double root_us = 0.0;  ///< mean root duration
  std::map<std::string, Layer> layers;

  /// The layer's entry, zero when absent.
  [[nodiscard]] Layer at(const std::string& name) const;
  /// Self time of `name` as a share of the root duration, in percent.
  [[nodiscard]] double share_pct(const std::string& name) const;
};

/// Resolves every span's parent by name (`parent_of[name]`, the root when
/// unlisted) within its request, then derives mean durations and self
/// times: a span's self time is its duration minus the part of it its
/// live children cover, minus the durations of its replayed children.
/// Writes the resolved parents back into `spans`.
Waterfall analyze(std::vector<SpanRec>& spans, const std::string& root,
                  const std::map<std::string, std::string>& parent_of);

/// Renders a waterfall as an indented table (stderr report).
std::string format_waterfall(const Waterfall& w, const std::string& root,
                             const std::map<std::string, std::string>& parent_of);

}  // namespace perfbench

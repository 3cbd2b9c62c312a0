#include "tracing.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<SpanLog*> g_tracer{nullptr};
thread_local std::uint64_t tl_request = 0;
thread_local Bytes tl_last_response;

const char* handler_span_name(cloud::MessageType type) {
  switch (type) {
    case cloud::MessageType::kRankedSearch: return "cloud.handle";
    case cloud::MessageType::kTenantScoped: return "tenant.handle";
    case cloud::MessageType::kFetchFiles: return "cloud.fetch";
    case cloud::MessageType::kUpdate: return "seg.update_apply";
    case cloud::MessageType::kDeltaBackfill: return "seg.backfill";
    default: return "cloud.other";
  }
}

bool is_ranked_search(cloud::MessageType type, BytesView payload) {
  if (type == cloud::MessageType::kRankedSearch) return true;
  if (type != cloud::MessageType::kTenantScoped) return false;
  return cloud::TenantScopedRequest::deserialize(payload).inner_type ==
         cloud::MessageType::kRankedSearch;
}

}  // namespace

void SpanLog::add(SpanRec rec) {
  const std::lock_guard lock(mutex_);
  rec.id = next_id_++;
  spans_.push_back(std::move(rec));
}

std::vector<SpanRec> SpanLog::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

void write_spans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream out(path);
  for (const SpanRec& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"node\":\"" << s.node
        << "\",\"request\":" << s.request << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"count\":" << s.count
        << ",\"replay\":" << (s.replay ? "true" : "false") << ",\"detail\":\"" << s.detail
        << "\"}\n";
  }
}

SpanLog* tracer() { return g_tracer.load(std::memory_order_acquire); }
void set_tracer(SpanLog* log) { g_tracer.store(log, std::memory_order_release); }

std::uint64_t& current_request() { return tl_request; }

std::uint64_t new_request_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void record(const char* name, std::uint64_t start_ns, std::uint64_t count, bool replay,
            const std::string& node) {
  SpanLog* log = tracer();
  if (log == nullptr) return;
  SpanRec rec;
  rec.name = name;
  rec.node = node;
  rec.request = tl_request;
  rec.start_ns = start_ns;
  rec.end_ns = obs::now_ns();
  rec.count = count;
  rec.replay = replay;
  log->add(std::move(rec));
}

// ----- TimedTransport -----

Bytes TimedTransport::call(cloud::MessageType type, BytesView request,
                           const Deadline& deadline) {
  return call(type, request, deadline, nullptr, 0);
}

Bytes TimedTransport::call(cloud::MessageType type, BytesView request,
                           const Deadline& deadline, obs::TraceRecorder* /*trace*/,
                           std::uint64_t /*parent_span_id*/) {
  SpanLog* log = tracer();
  if (log == nullptr) return inner_.call(type, request, deadline);
  // The recorder only carries the request id across the hop; whatever the
  // transports record into it is dropped with it.
  obs::TraceRecorder carrier(tl_request);
  const std::uint64_t start = obs::now_ns();
  Bytes response = inner_.call(type, request, deadline, &carrier, 0);
  SpanRec rec;
  rec.name = name_;
  rec.node = "client";
  rec.request = tl_request;
  rec.start_ns = start;
  rec.end_ns = obs::now_ns();
  rec.count = response.size();
  log->add(std::move(rec));
  tl_last_response = response;
  return response;
}

const Bytes& TimedTransport::last_response() { return tl_last_response; }

// ----- TimedHandler -----

Bytes TimedHandler::handle(cloud::MessageType type, BytesView payload) const {
  return run(type, payload, 0);
}

Bytes TimedHandler::handle(cloud::MessageType type, BytesView payload,
                           const obs::TraceContext& ctx,
                           std::vector<obs::Span>* /*spans*/) const {
  return run(type, payload, ctx.active() ? ctx.trace_id : 0);
}

Bytes TimedHandler::run(cloud::MessageType type, BytesView payload,
                        std::uint64_t request) const {
  SpanLog* log = tracer();
  const std::uint64_t start = log != nullptr ? obs::now_ns() : 0;
  const bool overlay = log != nullptr && server_ != nullptr && !server_->segments().empty();
  Bytes out = inner_.handle(type, payload);
  if (swap_ && is_ranked_search(type, payload)) {
    auto resp = cloud::RankedSearchResponse::deserialize(out);
    if (resp.files.size() >= 2) std::swap(resp.files.front(), resp.files.back());
    out = resp.serialize();
  }
  if (log != nullptr) {
    SpanRec rec;
    rec.name = handler_span_name(type);
    rec.node = node_;
    rec.request = request;
    rec.start_ns = start;
    rec.end_ns = obs::now_ns();
    rec.count = out.size();
    rec.detail = overlay ? "overlay" : "";
    log->add(std::move(rec));
  }
  return out;
}

// ----- waterfall -----

Waterfall::Layer Waterfall::at(const std::string& name) const {
  const auto it = layers.find(name);
  return it == layers.end() ? Layer{} : it->second;
}

double Waterfall::share_pct(const std::string& name) const {
  return root_us > 0.0 ? 100.0 * at(name).self_us / root_us : 0.0;
}

Waterfall analyze(std::vector<SpanRec>& spans, const std::string& root,
                  const std::map<std::string, std::string>& parent_of) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_request;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].request != 0) by_request[spans[i].request].push_back(i);

  Waterfall w;
  double root_total = 0.0;
  for (auto& [request, members] : by_request) {
    const auto root_it = std::find_if(members.begin(), members.end(),
                                      [&](std::size_t i) { return spans[i].name == root; });
    if (root_it == members.end()) continue;
    const std::size_t r = *root_it;
    for (const std::size_t i : members) {
      if (i == r) continue;
      const auto p = parent_of.find(spans[i].name);
      const std::string& parent_name = p == parent_of.end() ? root : p->second;
      std::size_t parent = r;
      for (const std::size_t j : members)
        if (j != i && spans[j].name == parent_name) {
          parent = j;
          break;
        }
      spans[i].parent = spans[parent].id;
    }
    for (const std::size_t j : members) {
      const SpanRec& s = spans[j];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      // Live children: the union of their intervals inside this span.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
      double replayed = 0.0;
      for (const std::size_t c : members) {
        if (c == j || spans[c].parent != s.id || c == r) continue;
        if (spans[c].replay) {
          replayed += static_cast<double>(spans[c].end_ns - spans[c].start_ns) * 1e-3;
        } else {
          const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
          const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
          if (a < b) live.emplace_back(a, b);
        }
      }
      std::sort(live.begin(), live.end());
      double covered = 0.0;
      std::uint64_t cur_a = 0, cur_b = 0;
      for (const auto& [a, b] : live) {
        if (a > cur_b) {
          covered += static_cast<double>(cur_b - cur_a) * 1e-3;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += static_cast<double>(cur_b - cur_a) * 1e-3;
      Waterfall::Layer& layer = w.layers[s.name];
      layer.total_us += dur;
      layer.self_us += dur - covered - replayed;
      layer.spans += 1.0;
      layer.count += static_cast<double>(s.count);
      if (j == r) root_total += dur;
    }
    ++w.roots;
  }
  if (w.roots == 0) return w;
  const auto n = static_cast<double>(w.roots);
  w.root_us = root_total / n;
  for (auto& [name, layer] : w.layers) {
    layer.span_us = layer.spans > 0.0 ? layer.total_us / layer.spans : 0.0;
    layer.total_us /= n;
    layer.self_us /= n;
    layer.spans /= n;
    layer.count /= n;
  }
  return w;
}

std::string format_waterfall(const Waterfall& w, const std::string& root,
                             const std::map<std::string, std::string>& parent_of) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %12s %12s %8s  (%zu %s operations)\n",
                "layer", "total us", "self us", "share", w.roots, root.c_str());
  out += line;
  const std::function<void(const std::string&, int)> walk = [&](const std::string& name,
                                                                int depth) {
    const Waterfall::Layer layer = w.at(name);
    const std::string label = std::string(static_cast<std::size_t>(depth) * 2, ' ') + name;
    std::snprintf(line, sizeof(line), "%-34s %12.1f %12.1f %7.1f%%\n", label.c_str(),
                  layer.total_us, layer.self_us, w.share_pct(name));
    out += line;
    for (const auto& [child, parent] : parent_of)
      if (parent == name && w.layers.contains(child)) walk(child, depth + 1);
  };
  walk(root, 0);
  for (const auto& [name, layer] : w.layers)
    if (name != root && !parent_of.contains(name) && layer.spans > 0.0) walk(name, 1);
  return out;
}

}  // namespace perfbench

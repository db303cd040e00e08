#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace pb::spans {

namespace {

std::atomic<std::uint64_t> g_next_id{1};

/// Innermost open caller span (op id, span id), read by RemoteScope.
std::atomic<std::uint64_t> g_current_op{0};
std::atomic<std::uint64_t> g_current_span{0};

struct Frame {
  std::uint64_t op = 0;
  std::uint64_t id = 0;
};
thread_local std::vector<Frame> t_stack;

std::mutex g_mu;
std::vector<Span> g_finished;

void finish(const Span& span) {
  std::lock_guard lock(g_mu);
  g_finished.push_back(span);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name, bool root_on) {
  // A nested scope follows its root: an op that started traced stays
  // traced to the end, one that started untraced records nothing.
  if (t_stack.empty() ? !root_on : t_stack.back().id == 0) {
    t_stack.push_back({});
    return;
  }
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (t_stack.empty()) {
    span_.op = span_.id;
  } else {
    span_.op = t_stack.back().op;
    span_.parent = t_stack.back().id;
  }
  t_stack.push_back({span_.op, span_.id});
  saved_current_ = g_current_span.load(std::memory_order_relaxed);
  g_current_op.store(span_.op, std::memory_order_relaxed);
  g_current_span.store(span_.id, std::memory_order_release);
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  t_stack.pop_back();
  if (!active_) return;
  span_.end_ns = now_ns();
  g_current_span.store(saved_current_, std::memory_order_release);
  if (saved_current_ == 0) g_current_op.store(0, std::memory_order_relaxed);
  finish(span_);
}

RemoteScope::RemoteScope(const char* name) {
  const std::uint64_t parent = g_current_span.load(std::memory_order_acquire);
  if (parent == 0) return;
  active_ = true;
  span_.name = name;
  span_.op = g_current_op.load(std::memory_order_relaxed);
  span_.parent = parent;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.start_ns = now_ns();
}

RemoteScope::~RemoteScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  finish(span_);
}

std::vector<Span> drain() {
  std::lock_guard lock(g_mu);
  std::vector<Span> out;
  out.swap(g_finished);
  return out;
}

SelfTimeReport self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  SelfTimeReport report;
  for (const Span& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) covered.emplace_back(a, b);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [a, b] : covered) {
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) union_ns += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) union_ns += run_end - run_start;

    const double dur_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self_s = dur_s - static_cast<double>(union_ns) * 1e-9;
    NameStats& stats = report.by_name[s.name];
    ++stats.count;
    stats.self_s += self_s;
    stats.durations_s.push_back(dur_s);
    report.self_total_s += self_s;
    if (s.parent == 0) {
      ++report.ops;
      report.root_total_s += dur_s;
    }
  }
  return report;
}

bool write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans)
    out << "{\"name\":\"" << s.name << "\",\"op\":" << s.op << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  return out.good();
}

}  // namespace pb::spans

// Benchmark-side spans for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// runtime's public functions (the runtime itself is not instrumented
// further).  Each span holds a name, start, end, its parent and the id of
// the op it belongs to; spans stay in memory and are written out when the
// run ends.
//
// Nesting on a caller thread is tracked with a thread-local stack.  Work
// that runs on the server's threads on behalf of a call (servant code, the
// checkpoint backend) records a *remote* span whose parent is the caller's
// innermost open span at that moment — well defined when one caller thread
// drives the op, which is how the workloads that record remote spans run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb::spans {

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t op = 0;   ///< op (trace) id shared by all spans of one op
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for the op's root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// RAII span on the calling thread.  A Scope opened with no enclosing span
/// on this thread starts a new op (it becomes the op's root) and records
/// when `root_on` says so; nested scopes record exactly when their root
/// does, so an op is traced whole or not at all.
class Scope {
 public:
  explicit Scope(const char* name) : Scope(name, false) {}
  Scope(const char* name, bool root_on);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  bool active_ = false;
  std::uint64_t saved_current_ = 0;
};

/// RAII span on a server thread, parented to the caller's innermost open
/// span.  Records nothing when no caller span is open.
class RemoteScope {
 public:
  explicit RemoteScope(const char* name);
  ~RemoteScope();
  RemoteScope(const RemoteScope&) = delete;
  RemoteScope& operator=(const RemoteScope&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Removes and returns every finished span.
std::vector<Span> drain();

/// Per-name aggregate of one set of spans.
struct NameStats {
  std::uint64_t count = 0;
  double self_s = 0.0;        ///< summed self time
  std::vector<double> durations_s;
};

struct SelfTimeReport {
  std::map<std::string, NameStats> by_name;
  std::uint64_t ops = 0;        ///< root spans seen
  double root_total_s = 0.0;    ///< summed root (op) durations
  double self_total_s = 0.0;    ///< summed self time of every span
};

/// Self time of a span = its duration minus the part of its interval that
/// its children cover (union of the children's intervals clipped to the
/// parent).  With properly nested, non-overlapping children the self times
/// of all spans of an op add up to the op's root duration; the root's own
/// self time is the remainder no layer span covers.
SelfTimeReport self_times(const std::vector<Span>& spans);

/// Writes spans as JSON lines (one object per span).  Returns false on I/O
/// failure.
bool write_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace pb::spans

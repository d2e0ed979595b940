#pragma once

// In-memory span recorder for the traced replay. A span has a name
// ("<layer>.<what>"), a start and end on the steady clock, the span that
// caused it, the operation it belongs to, and the thread it ran on.
// Spans stay in memory; attribute() turns them into per-name seconds on
// the blocking path of each operation:
//
//  * a span's self time is its duration minus the union of its
//    same-thread children;
//  * a span whose children also ran on other threads (a parallel_for
//    fan-out) is a wait on the caller's path: its self time is split
//    across the names of those other-thread descendants, in proportion
//    to their own self times;
//  * spans named "op.*" are the operations themselves, so their self
//    time is the part of the operation no layer span covers.

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;
  int op = -1;
  int thread = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opens on construction under the calling thread's current
  /// span, and makes itself the current span until it closes.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, int op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
    int prev_;
  };

  /// Makes `parent` the calling thread's current span for its lifetime;
  /// pool tasks open one so their spans hang under the fan-out span.
  class Adopt {
   public:
    explicit Adopt(int parent);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    int prev_;
  };

  /// The calling thread's current span (-1 outside any span).
  static int current();

  std::vector<Span> spans() const;

 private:
  int open(const char* name, int op);
  void close(int id);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Blocking-path seconds per span name, summed over the operations whose
/// root span's op id passes `keep` (all when empty).
std::map<std::string, double> attribute(const std::vector<Span>& spans,
                                        const std::function<bool(int)>& keep = {});

/// Sum of the durations of root spans that pass `keep`.
double root_seconds(const std::vector<Span>& spans,
                    const std::function<bool(int)>& keep = {});

}  // namespace pb

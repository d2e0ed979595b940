#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common.hpp"

namespace pb {
namespace {

thread_local int tl_current = -1;

int thread_tag() {
  static std::atomic<int> next{0};
  thread_local const int tag = next.fetch_add(1);
  return tag;
}

/// Length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

Tracer::Scope::Scope(Tracer& t, const char* name, int op)
    : t_(t), id_(t.open(name, op)), prev_(tl_current) {
  tl_current = id_;
}

Tracer::Scope::~Scope() {
  t_.close(id_);
  tl_current = prev_;
}

Tracer::Adopt::Adopt(int parent) : prev_(tl_current) { tl_current = parent; }

Tracer::Adopt::~Adopt() { tl_current = prev_; }

int Tracer::current() { return tl_current; }

int Tracer::open(const char* name, int op) {
  Span s;
  s.name = name;
  s.parent = tl_current;
  s.op = op;
  s.thread = thread_tag();
  s.start = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::map<std::string, double> attribute(const std::vector<Span>& s,
                                        const std::function<bool(int)>& keep) {
  const std::size_t n = s.size();
  std::vector<std::vector<int>> kids(n);
  for (std::size_t i = 0; i < n; ++i)
    if (s[i].parent >= 0)
      kids[static_cast<std::size_t>(s[i].parent)].push_back(static_cast<int>(i));

  // Self time: duration minus same-thread children.
  std::vector<double> self(n, 0.0);
  std::vector<bool> fans_out(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, double>> iv;
    for (int k : kids[i]) {
      if (s[static_cast<std::size_t>(k)].thread == s[i].thread)
        iv.emplace_back(s[static_cast<std::size_t>(k)].start, s[static_cast<std::size_t>(k)].end);
      else
        fans_out[i] = true;
    }
    self[i] = std::max(0.0, (s[i].end - s[i].start) - covered(iv, s[i].start, s[i].end));
  }

  // Self time of every span under `root` (any thread), by name.
  auto subtree_self = [&](int root, std::map<std::string, double>& w) {
    std::vector<int> stack{root};
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      w[s[static_cast<std::size_t>(i)].name] += self[static_cast<std::size_t>(i)];
      for (int k : kids[static_cast<std::size_t>(i)]) stack.push_back(k);
    }
  };

  std::map<std::string, double> out;
  // Walk the blocking path: roots and their same-thread descendants.
  std::vector<int> stack;
  for (std::size_t i = 0; i < n; ++i)
    if (s[i].parent < 0 && (!keep || keep(s[i].op))) stack.push_back(static_cast<int>(i));
  while (!stack.empty()) {
    const std::size_t i = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    if (!fans_out[i]) {
      out[s[i].name] += self[i];
    } else {
      std::map<std::string, double> w;
      double total = 0;
      for (int k : kids[i])
        if (s[static_cast<std::size_t>(k)].thread != s[i].thread) subtree_self(k, w);
      for (const auto& [name, v] : w) total += v;
      if (total <= 0) {
        out[s[i].name] += self[i];
      } else {
        for (const auto& [name, v] : w) out[name] += self[i] * v / total;
      }
    }
    for (int k : kids[i])
      if (s[static_cast<std::size_t>(k)].thread == s[i].thread) stack.push_back(k);
  }
  return out;
}

double root_seconds(const std::vector<Span>& spans,
                    const std::function<bool(int)>& keep) {
  double t = 0;
  for (const Span& sp : spans)
    if (sp.parent < 0 && (!keep || keep(sp.op))) t += sp.end - sp.start;
  return t;
}

}  // namespace pb

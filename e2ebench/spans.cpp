#include "spans.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <tuple>

namespace e2ebench {

namespace {

thread_local std::uint32_t t_current = kNoSpan;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Length of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::uint32_t Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = t_current;
  s.thread = thread_index();
  std::uint32_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(std::move(s));
    spans_.back().start_ns = now_ns();
  }
  t_current = id;
  return id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = t;
  t_current = spans_[id].parent;
}

void Tracer::add_inner(std::uint32_t id, const std::string& layer,
                       std::int64_t ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& inner = spans_[id].inner;
  for (auto& [name, total] : inner)
    if (name == layer) {
      total += ns;
      return;
    }
  inner.emplace_back(layer, ns);
}

std::uint32_t Tracer::current() { return t_current; }

void Tracer::adopt(std::uint32_t parent) { t_current = parent; }

std::vector<std::uint32_t> Tracer::subtree(std::uint32_t root) const {
  // Parents are always opened before their children, so one forward scan
  // from the root collects the whole tree.
  std::vector<std::uint8_t> in(spans_.size(), 0);
  std::vector<std::uint32_t> out;
  in[root] = 1;
  out.push_back(root);
  for (std::uint32_t i = root + 1; i < spans_.size(); ++i) {
    const std::uint32_t p = spans_[i].parent;
    if (p != kNoSpan && in[p]) {
      in[i] = 1;
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::int64_t> Tracer::own_ns(
    const std::vector<std::uint32_t>& ids) const {
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (std::size_t k = 1; k < ids.size(); ++k)
    children[spans_[ids[k]].parent].emplace_back(spans_[ids[k]].start_ns,
                                                 spans_[ids[k]].end_ns);
  std::vector<std::int64_t> own(spans_.size(), 0);
  for (std::uint32_t i : ids) {
    auto it = children.find(i);
    own[i] = duration(i) - (it == children.end() ? 0 : union_length(it->second));
  }
  return own;
}

std::map<std::string, double> Tracer::self_times(std::uint32_t root) const {
  const auto ids = subtree(root);
  const auto own = own_ns(ids);
  std::map<std::string, double> out;
  for (std::size_t k = 1; k < ids.size(); ++k) {
    const Span& s = spans_[ids[k]];
    std::int64_t rest = own[ids[k]];
    for (const auto& [layer, ns] : s.inner) {
      out[layer] += static_cast<double>(ns);
      rest -= ns;
    }
    out[s.name] += static_cast<double>(rest);
  }
  return out;
}

std::map<std::string, double> Tracer::wall_shares(std::uint32_t root) const {
  const auto ids = subtree(root);
  // Events: ends before starts at equal times; starts in id order (parent
  // first), ends in reverse id order (child first).
  struct Event {
    std::int64_t t;
    int kind;  // 0 = end, 1 = start
    std::int64_t order;
    std::uint32_t id;
  };
  std::vector<Event> events;
  events.reserve(2 * ids.size());
  for (std::uint32_t i : ids) {
    events.push_back({spans_[i].start_ns, 1, static_cast<std::int64_t>(i), i});
    events.push_back({spans_[i].end_ns, 0, -static_cast<std::int64_t>(i), i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.t, a.kind, a.order) < std::tie(b.t, b.kind, b.order);
  });

  std::vector<double> share(spans_.size(), 0.0);
  std::vector<int> running_children(spans_.size(), 0);
  std::vector<std::uint8_t> active(spans_.size(), 0);
  std::vector<std::uint32_t> leaves;
  auto drop_leaf = [&](std::uint32_t id) {
    auto it = std::find(leaves.begin(), leaves.end(), id);
    if (it != leaves.end()) leaves.erase(it);
  };
  std::int64_t last = events.empty() ? 0 : events.front().t;
  for (const Event& ev : events) {
    if (ev.t > last && !leaves.empty()) {
      const double dt = static_cast<double>(ev.t - last) /
                        static_cast<double>(leaves.size());
      for (std::uint32_t l : leaves) share[l] += dt;
    }
    last = ev.t;
    const std::uint32_t p = ev.id == root ? kNoSpan : spans_[ev.id].parent;
    if (ev.kind == 1) {
      active[ev.id] = 1;
      leaves.push_back(ev.id);
      if (p != kNoSpan && active[p] && running_children[p]++ == 0)
        drop_leaf(p);
    } else {
      active[ev.id] = 0;
      drop_leaf(ev.id);
      if (p != kNoSpan && active[p] && --running_children[p] == 0)
        leaves.push_back(p);
    }
  }

  // Accumulated inner timers split their span's share in proportion to
  // the span's own (uncovered) thread time.
  const auto self = own_ns(ids);

  std::map<std::string, double> out;
  for (std::uint32_t i : ids) {
    const Span& s = spans_[i];
    double rest = share[i];
    if (!s.inner.empty() && self[i] > 0) {
      for (const auto& [layer, ns] : s.inner) {
        const double part =
            share[i] * static_cast<double>(ns) / static_cast<double>(self[i]);
        out[layer] += part;
        rest -= part;
      }
    }
    out[s.name] += rest;
  }
  return out;
}

std::vector<std::int64_t> Tracer::durations(std::uint32_t root,
                                            const std::string& name) const {
  std::vector<std::int64_t> out;
  for (std::uint32_t i : subtree(root))
    if (spans_[i].name == name) out.push_back(duration(i));
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"parent\":"
      << (s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent))
      << ",\"name\":\"" << json_escape(s.name) << "\",\"thread\":" << s.thread
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns;
    if (!s.inner.empty()) {
      f << ",\"inner_ns\":{";
      for (std::size_t k = 0; k < s.inner.size(); ++k)
        f << (k ? "," : "") << "\"" << json_escape(s.inner[k].first)
          << "\":" << s.inner[k].second;
      f << "}";
    }
    f << "}\n";
  }
  if (!f) throw std::runtime_error("failed writing spans to " + path);
}

}  // namespace e2ebench

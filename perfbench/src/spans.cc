#include "src/spans.h"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

#include "src/util.h"

namespace rcbench {
namespace {

std::atomic<bool> g_enabled{false};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  int64_t open = -1;  // innermost open span
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    auto& all = Buffers();
    all.push_back(std::make_unique<ThreadBuffer>());
    all.back()->thread = static_cast<uint32_t>(all.size() - 1);
    all.back()->spans.reserve(1 << 16);
    return all.back().get();
  }();
  return *buffer;
}

}  // namespace

void Tracer::Enable() { g_enabled.store(true, std::memory_order_relaxed); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t Tracer::Begin(const char* name) {
  ThreadBuffer& b = Local();
  b.spans.push_back(SpanRecord{name, NowNs(), 0, b.open, b.thread});
  b.open = static_cast<int64_t>(b.spans.size() - 1);
  return b.open;
}

void Tracer::End(int64_t index) {
  ThreadBuffer& b = Local();
  SpanRecord& span = b.spans[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  b.open = span.parent;
}

bool Tracer::WriteJsonl(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : Buffers()) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& s = buffer->spans[i];
      out << "{\"thread\": " << s.thread << ", \"id\": " << i << ", \"parent\": "
          << s.parent << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() {
  std::map<std::string, Totals> totals;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : Buffers()) {
    const auto& spans = buffer->spans;
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      uint64_t dur = s.end_ns - s.start_ns;
      Totals& t = totals[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  return totals;
}

}  // namespace rcbench

// In-memory span recorder for the traced run mode (--trace 1). Every call
// the benchmark makes into a layer is wrapped in a Span; spans carry a name,
// start, end and parent (the enclosing span on the same thread). Recording
// is off unless Tracer::Enable() was called, in which case a span costs two
// clock reads and one append to a thread-local buffer. Spans are written out
// once, when the run ends.
#ifndef RCBENCH_SPANS_H_
#define RCBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcbench {

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // index into the same thread's buffer, -1 for a root
  uint32_t thread;
};

class Tracer {
 public:
  static void Enable();
  static bool enabled();

  // Appends every thread's spans (threads must have finished) as JSON
  // lines to `path`; false when the file cannot be written.
  static bool WriteJsonl(const std::string& path);

  // Total and self time (total minus direct children) per span name, in
  // nanoseconds, plus the span count.
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  static std::map<std::string, Totals> Summarize();

 private:
  friend class Span;
  static int64_t Begin(const char* name);
  static void End(int64_t index);
};

class Span {
 public:
  explicit Span(const char* name) : index_(Tracer::enabled() ? Tracer::Begin(name) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

}  // namespace rcbench

#endif  // RCBENCH_SPANS_H_

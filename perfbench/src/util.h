// Small helpers shared by the benchmark's workloads: clocks, percentiles,
// peak RSS, CPU pinning, binary record files, and the run's metric report.
#ifndef RCBENCH_UTIL_H_
#define RCBENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rcbench {

// Monotonic nanoseconds (CLOCK_MONOTONIC, so stamps from the server and the
// load-generator process are comparable).
uint64_t NowNs();
inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty input.
double Percentile(std::vector<double> values, double q);

// Tail latency that one host hiccup cannot swing: samples (time stamp ns,
// value) are cut into consecutive windows of `window_ns`, the q-quantile is
// taken inside each window, and the median over windows is returned.
double MedianOfWindowQuantiles(std::vector<std::pair<uint64_t, double>> samples,
                               uint64_t window_ns, double q);

// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

// CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();
// Pins every thread of this process to `cpus`; later threads inherit it.
// False when the kernel refuses (the run continues unpinned).
bool PinProcess(const std::vector<int>& cpus);
std::string CpuList(const std::vector<int>& cpus);

// Reads the "model name" line of /proc/cpuinfo ("unknown" when absent).
std::string CpuModel();

// Raw POD vector file IO for the server <-> load-generator hand-off.
class BinWriter {
 public:
  explicit BinWriter(const std::string& path);
  ~BinWriter();
  bool ok() const { return f_ != nullptr; }
  void Raw(const void* p, size_t n);
  template <typename T>
  void Pod(const T& v) { Raw(&v, sizeof(T)); }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    uint64_t n = v.size();
    Pod(n);
    if (n > 0) Raw(v.data(), n * sizeof(T));
  }
  void Str(const std::string& s);

 private:
  std::FILE* f_;
};

class BinReader {
 public:
  explicit BinReader(const std::string& path);
  ~BinReader();
  bool ok() const { return f_ != nullptr && good_; }
  void Raw(void* p, size_t n);
  template <typename T>
  T Pod() {
    T v{};
    Raw(&v, sizeof(T));
    return v;
  }
  template <typename T>
  std::vector<T> Vec() {
    uint64_t n = Pod<uint64_t>();
    std::vector<T> v;
    if (!good_ || n > (uint64_t{1} << 32)) {
      good_ = false;
      return v;
    }
    v.resize(n);
    if (n > 0) Raw(v.data(), n * sizeof(T));
    return v;
  }
  std::string Str();

 private:
  std::FILE* f_;
  bool good_ = true;
};

// One named metric with its unit, in the order it was added.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The run's report: human-readable lines go to stdout as they are added;
// Finish() prints the one-line JSON result the benchmark contract requires.
class Report {
 public:
  void Line(const std::string& text);
  // A metric printed as "  <name> = <value> <unit>" and, when `in_json`,
  // also carried in the final JSON object.
  void Add(const std::string& name, double value, const std::string& unit,
           bool in_json);
  void Fail(const std::string& check, const std::string& detail);
  bool correct() const { return failures_.empty(); }
  void Finish(uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> json_;
  std::vector<std::string> failures_;
};

// Formats a double with every significant digit.
std::string Num(double v);

}  // namespace rcbench

#endif  // RCBENCH_UTIL_H_

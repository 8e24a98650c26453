#include "src/util.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <iostream>
#include <sstream>

namespace rcbench {

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double MedianOfWindowQuantiles(std::vector<std::pair<uint64_t, double>> samples,
                               uint64_t window_ns, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const uint64_t start = samples.front().first;
  std::vector<double> per_window, window;
  uint64_t current = 0;
  for (const auto& [t, v] : samples) {
    uint64_t w = (t - start) / window_ns;
    if (w != current && !window.empty()) {
      per_window.push_back(Percentile(window, q));
      window.clear();
    }
    current = w;
    window.push_back(v);
  }
  if (!window.empty()) per_window.push_back(Percentile(window, q));
  return Percentile(per_window, 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool PinProcess(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  bool ok = true;
  // Every existing thread of this process, then the caller (new threads
  // inherit the creating thread's mask).
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (sched_setaffinity(tid, sizeof(set), &set) != 0) ok = false;
    }
    closedir(dir);
  }
  if (sched_setaffinity(0, sizeof(set), &set) != 0) ok = false;
  return ok;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (size_t i = 0; i < cpus.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(cpus[i]);
  }
  return out.empty() ? "-" : out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        size_t start = model.find_first_not_of(' ');
        return start == std::string::npos ? model : model.substr(start);
      }
    }
  }
  return "unknown";
}

BinWriter::BinWriter(const std::string& path) : f_(std::fopen(path.c_str(), "wb")) {}
BinWriter::~BinWriter() {
  if (f_ != nullptr) std::fclose(f_);
}
void BinWriter::Raw(const void* p, size_t n) {
  if (f_ != nullptr) std::fwrite(p, 1, n, f_);
}
void BinWriter::Str(const std::string& s) {
  Pod<uint64_t>(s.size());
  Raw(s.data(), s.size());
}

BinReader::BinReader(const std::string& path) : f_(std::fopen(path.c_str(), "rb")) {}
BinReader::~BinReader() {
  if (f_ != nullptr) std::fclose(f_);
}
void BinReader::Raw(void* p, size_t n) {
  if (f_ == nullptr || !good_) {
    good_ = false;
    return;
  }
  if (std::fread(p, 1, n, f_) != n) good_ = false;
}
std::string BinReader::Str() {
  uint64_t n = Pod<uint64_t>();
  if (!good_ || n > (1u << 20)) {
    good_ = false;
    return {};
  }
  std::string s(n, '\0');
  Raw(s.data(), n);
  return s;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Line(const std::string& text) { std::cout << text << "\n"; }

void Report::Add(const std::string& name, double value, const std::string& unit,
                 bool in_json) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::cout << "  " << name << " = " << buf << " " << unit << "\n";
  if (in_json) json_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& check, const std::string& detail) {
  failures_.push_back(check);
  std::cout << "CHECK FAILED [" << check << "]: " << detail << "\n";
}

void Report::Finish(uint64_t attempted, uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < json_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << json_[i].name << "\": {\"value\": " << Num(json_[i].value)
        << ", \"unit\": \"" << json_[i].unit << "\"}";
  }
  out << "}}";
  std::cout.flush();
  std::cout << out.str() << std::endl;
}

}  // namespace rcbench

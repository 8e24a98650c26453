// The benchmark's workloads. Each takes its seed and run length, generates
// its inputs before the timed phase, checks the program's outputs after it,
// and ends by printing the one-line JSON result.
#ifndef RCBENCH_WORKLOADS_H_
#define RCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace rcbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string run_dir;    // scratch directory for this run's files
  std::string source_id;  // commit or source-tree hash, for the fingerprint
  uint64_t start_ns = 0;  // process start, for setup_s
  std::string self_exe;   // this binary, to spawn the load generator
};

// Prints the host fingerprint and the run's configuration.
void PrintContext(const RunOptions& options);

// serve_hot / serve_push: RCNP serving in a separate server process.
int RunServe(const RunOptions& options);
// The load-generator role of the serving workloads (spawned by RunServe).
int RunLoadgen(int argc, char** argv);
// paper_month: the Section 6.2 pipeline in-process.
int RunPaperMonth(const RunOptions& options);

}  // namespace rcbench

#endif  // RCBENCH_WORKLOADS_H_

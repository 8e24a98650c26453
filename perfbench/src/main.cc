// rcbench: the repository benchmark. Normally started through
// perfbench/run.py, which builds it and passes:
//
//   rcbench --workload serve_hot|serve_push|paper_month --seed N --seconds S
//           --trace 0|1 --run-dir DIR [--source-id ID]
//
// The last line of standard output is the JSON result.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "src/ml/exec_engine.h"
#include "src/util.h"
#include "src/workloads.h"

namespace rcbench {

void PrintContext(const RunOptions& o) {
  std::cout << "== rcbench " << o.workload << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << "\n";
  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " allowed_cpus=" << CpuList(AllowedCpus()) << " cpu=\"" << CpuModel()
            << "\" avx2_walk="
            << (rc::ml::ExecEngine::Avx2Available() ? "dispatched" : "not-dispatched")
            << " build=" << RCBENCH_BUILD_TYPE << " commit=" << o.source_id << "\n";
}

}  // namespace rcbench

int main(int argc, char** argv) {
  rcbench::RunOptions options;
  options.start_ns = rcbench::NowNs();
  options.self_exe = "/proc/self/exe";
  if (argc > 2 && std::strcmp(argv[1], "--role") == 0 &&
      std::strcmp(argv[2], "loadgen") == 0) {
    return rcbench::RunLoadgen(argc, argv);
  }
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    std::string arg = argv[i];
    if (arg == "--workload") {
      options.workload = value("--workload");
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value("--seconds").c_str());
    } else if (arg == "--trace") {
      options.trace = value("--trace") == "1";
    } else if (arg == "--run-dir") {
      options.run_dir = value("--run-dir");
    } else if (arg == "--source-id") {
      options.source_id = value("--source-id");
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (options.seconds < 1 || options.run_dir.empty()) {
    std::cerr << "--seconds must be >= 1 and --run-dir is required\n";
    return 2;
  }
  if (options.source_id.empty()) options.source_id = "unknown";
  if (options.workload == "serve_hot" || options.workload == "serve_push") {
    return rcbench::RunServe(options);
  }
  if (options.workload == "paper_month") return rcbench::RunPaperMonth(options);
  std::cerr << "unknown workload '" << options.workload
            << "' (serve_hot, serve_push, paper_month)\n";
  return 2;
}

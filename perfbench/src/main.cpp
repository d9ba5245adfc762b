// perfbench harness: generates one workload's inputs from a seed, drives
// the engine in process and the shipped ingrass_serve over loopback TCP,
// checks the outputs and prints the raw measurements as one JSON line.
// perfbench/run.py builds it, turns the samples into metrics and prints
// the benchmark result.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "phases.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload paper_stream|tcp_solve|tcp_churn "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Context ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--serve-bin") {
      ctx.serve_binary = value;
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || ctx.serve_binary.empty() || ctx.work_dir.empty() || ctx.seconds <= 0) {
    return usage();
  }
  // Full-size main phase; the other two phases run smaller, for half as long.
  const double s = ctx.seconds;
  const PhaseSize paper_main{true, 4.0, s}, paper_small{false, 1.0, s / 2};
  const PhaseSize solve_main{true, 1.0, s}, solve_small{false, 0.25, s / 2};
  const PhaseSize churn_main{true, 1.0, s}, churn_small{false, 0.5, s / 2};
  Report report;
  Tracer tracer(ctx.trace);
  ctx.report = &report;
  ctx.tracer = &tracer;
  try {
    std::filesystem::create_directories(ctx.work_dir);
    if (workload == "paper_stream") {
      run_paper(ctx, paper_main);
      run_solve(ctx, solve_small);
      run_churn(ctx, churn_small);
    } else if (workload == "tcp_solve") {
      run_solve(ctx, solve_main);
      run_paper(ctx, paper_small);
      run_churn(ctx, churn_small);
    } else if (workload == "tcp_churn") {
      run_churn(ctx, churn_main);
      run_paper(ctx, paper_small);
      run_solve(ctx, solve_small);
    } else {
      return usage();
    }
    if (ctx.trace) {
      measure_stream_bandwidth(ctx);
      tracer.write_jsonl(ctx.work_dir + "/spans.jsonl");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::cout << report.to_json() << std::endl;
  return 0;
}

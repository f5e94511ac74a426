// perfbench: one workload run against the public GraphSession API.
//
//   perfbench --workload <query_mix|query_overload|hub_query|update_standing>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--work-dir <dir>]
//
// Prints progress nowhere and one JSON report as the last line of stdout
// (see Report::to_json). With --trace 1 it also writes the span file
// <out-dir>/<workload>-seed<n>.spans.jsonl. Exits 1 when any output failed
// its correctness check, 2 on a usage or runtime error. run.py is the
// front end that builds this binary and turns the report into results.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

bool parse(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !kv.contains("workload")) return false;
  args->workload = kv["workload"];
  if (kv.contains("seed")) args->seed = std::stoull(kv["seed"]);
  if (kv.contains("seconds")) args->seconds = std::stod(kv["seconds"]);
  if (kv.contains("trace")) args->trace = kv["trace"] != "0";
  if (kv.contains("out-dir")) args->out_dir = kv["out-dir"];
  if (kv.contains("work-dir")) args->work_dir = kv["work-dir"];
  return args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace fs = std::filesystem;
  Args args;
  try {
    if (!parse(argc, argv, &args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--out-dir d] "
                   "[--work-dir d]\n");
      return 2;
    }
    fs::create_directories(args.out_dir);
    fs::create_directories(args.work_dir);
    Tracer tracer(args.trace);
    Report report;
    if (args.workload == "query_mix") {
      report = run_query_mix(args, tracer);
    } else if (args.workload == "query_overload") {
      report = run_query_overload(args, tracer);
    } else if (args.workload == "hub_query") {
      report = run_hub_query(args, tracer);
    } else if (args.workload == "update_standing") {
      report = run_update_standing(args, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    report.info["seed"] = std::to_string(args.seed);
    if (args.trace) {
      const std::string spans = args.out_dir + "/" + args.workload + "-seed" +
                                std::to_string(args.seed) + ".spans.jsonl";
      tracer.write_jsonl(spans);
      report.info["spans_file"] = spans;
      report.info["spans"] = std::to_string(tracer.size());
      for (const auto& [layer, t] : tracer.layer_times()) {
        report.layer_time[layer + ".total_ms"] = {t.total_ms, "ms"};
        report.layer_time[layer + ".self_ms"] = {t.self_ms, "ms"};
      }
    }
    std::printf("%s\n", report.to_json().c_str());
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

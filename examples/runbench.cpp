// runbench: the command-line experiment runner.
//
//   $ ./runbench --workload miniamr+readonly --ranks 24 --config all
//   $ ./runbench --workload gtc+matrixmult --ranks 16 --config P-LocR
//       --iterations 20 --stack nova --trace out.json
//   $ ./runbench --workload micro-2KB --ranks 8 --recommend
//
// Runs any suite workflow at any concurrency under one (or all four)
// Table I configurations, optionally over the NOVA stack, with
// optional characterization + recommendation and Chrome-trace export.
// This is the "launch script" surface the paper's scheduler decisions
// plug into.
#include <cstdio>
#include <iostream>
#include <optional>

#include "common/flags.hpp"
#include "core/autotuner.hpp"
#include "metrics/report.hpp"
#include "trace/tracer.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace pmemflow;

std::optional<workloads::Family> parse_family(const std::string& name) {
  for (const auto family : workloads::all_families()) {
    if (name == to_string(family)) return family;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "runbench: run one paper-suite workflow under Table I "
      "configurations on the simulated Optane platform");
  flags.add_string("workload", "miniamr+readonly",
                   "one of: micro-64MB, micro-2KB, gtc+readonly, "
                   "gtc+matrixmult, miniamr+readonly, miniamr+matrixmult");
  flags.add_int("ranks", 16, "MPI ranks per component (1-28)");
  flags.add_int("iterations", 10, "snapshot iterations");
  flags.add_string("config", "all",
                   "S-LocW, S-LocR, P-LocW, P-LocR, or 'all'");
  flags.add_string("stack", "nvstream", "nvstream or nova");
  flags.add_bool("recommend", false,
                 "characterize the workflow and print recommendations");
  flags.add_string("trace", "",
                   "write a Chrome trace JSON here (single config only)");
  flags.add_bool("verify", true, "verify reader payloads end-to-end");

  auto parsed = flags.parse(argc, argv);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s\n", parsed.error().message.c_str());
    return parsed.error().message.find("usage:") != std::string::npos ? 0
                                                                      : 2;
  }

  const auto family = parse_family(flags.get_string("workload"));
  if (!family.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 flags.get_string("workload").c_str());
    return 2;
  }
  const std::string stack_name = flags.get_string("stack");
  if (stack_name != "nvstream" && stack_name != "nova") {
    std::fprintf(stderr, "unknown stack '%s'\n", stack_name.c_str());
    return 2;
  }

  auto spec = workloads::make_workflow(
      *family, static_cast<std::uint32_t>(flags.get_int("ranks")),
      stack_name == "nova" ? workflow::WorkflowSpec::Stack::kNova
                           : workflow::WorkflowSpec::Stack::kNvStream);
  spec.iterations = static_cast<std::uint32_t>(flags.get_int("iterations"));
  spec.verify_reads = flags.get_bool("verify");

  core::Executor executor;

  if (flags.get_bool("recommend")) {
    auto report = core::tune(executor, spec);
    if (!report.has_value()) {
      std::fprintf(stderr, "error: %s\n", report.error().message.c_str());
      return 1;
    }
    const auto& f = report->profile.features;
    std::printf("characterization: sim I/O index %.2f, analytics I/O "
                "index %.2f, %s objects, %s concurrency\n",
                report->profile.simulation.io_index(),
                report->profile.analytics.io_index(),
                f.small_objects ? "small" : "large",
                core::to_string(f.concurrency));
    std::printf("rule-based recommendation:  %s (regret %.2fx)\n",
                report->rule_based.config.label().c_str(),
                report->rule_based_regret);
    std::printf("model-based recommendation: %s (regret %.2fx)\n",
                report->model_based.config.label().c_str(),
                report->model_based_regret);
    std::printf("empirical best:             %s\n\n",
                report->best.label().c_str());
  }

  const std::string config_name = flags.get_string("config");
  if (config_name == "all") {
    auto sweep = executor.sweep(spec);
    if (!sweep.has_value()) {
      std::fprintf(stderr, "error: %s\n", sweep.error().message.c_str());
      return 1;
    }
    metrics::print_panel(std::cout, spec.label, *sweep);
    return 0;
  }

  auto config = core::parse_config(config_name);
  if (!config.has_value()) {
    std::fprintf(stderr, "%s\n", config.error().message.c_str());
    return 2;
  }

  trace::Tracer tracer;
  auto options = config->run_options();
  const std::string trace_path = flags.get_string("trace");
  if (!trace_path.empty()) options.tracer = &tracer;

  auto result = executor.runner().run(spec, options);
  if (!result.has_value()) {
    std::fprintf(stderr, "error: %s\n", result.error().message.c_str());
    return 1;
  }
  std::printf("%s %s over %s: %.3f s", spec.label.c_str(),
              config->label().c_str(), stack_name.c_str(),
              static_cast<double>(result->total_ns) / 1e9);
  if (options.serial) {
    std::printf(" (writer %.3f s + reader %.3f s)",
                static_cast<double>(result->writer_span_ns) / 1e9,
                static_cast<double>(result->reader_span_ns()) / 1e9);
  }
  std::printf("\nverified %llu objects, %llu failures\n",
              static_cast<unsigned long long>(result->objects_verified),
              static_cast<unsigned long long>(
                  result->verification_failures));
  if (!trace_path.empty()) {
    if (!tracer.write_chrome_trace_file(trace_path)) {
      std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  return result->verification_failures == 0 ? 0 : 1;
}

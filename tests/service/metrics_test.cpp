// Zero-completion safety for the service metrics pipeline.
//
// A run where every submission is rejected (or an empty stream) has no
// completion records. The aggregate, the operator report, and the CSV
// export must all emit finite zeros — never NaN or inf from a 0/0.
#include "service/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace pmemflow::service {
namespace {

ServiceMetrics empty_run_metrics() {
  return aggregate_metrics(/*records=*/{}, /*makespan_ns=*/0,
                           /*node_utilization=*/{0.0, 0.0});
}

void expect_finite(const metrics::SummaryStats& stats, const char* what) {
  EXPECT_TRUE(std::isfinite(stats.mean)) << what;
  EXPECT_TRUE(std::isfinite(stats.p50)) << what;
  EXPECT_TRUE(std::isfinite(stats.p99)) << what;
  EXPECT_TRUE(std::isfinite(stats.max)) << what;
  EXPECT_EQ(stats.mean, 0.0) << what;
}

TEST(ServiceMetricsZeroCompletions, AggregateIsAllFiniteZeros) {
  const ServiceMetrics metrics = empty_run_metrics();
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.makespan_ns, 0u);
  expect_finite(metrics.queue_delay_ns, "queue_delay");
  expect_finite(metrics.slowdown, "slowdown");
  expect_finite(metrics.runtime_ns, "runtime");
  expect_finite(metrics.victim_slowdown, "victim_slowdown");
  EXPECT_TRUE(std::isfinite(metrics.mean_utilization));
  EXPECT_EQ(metrics.mean_utilization, 0.0);
  EXPECT_EQ(metrics.preemptions, 0u);
  EXPECT_EQ(metrics.checkpoint_overhead_ns, 0u);
}

TEST(ServiceMetricsZeroCompletions, ReportPrintsNoNaN) {
  std::ostringstream out;
  print_service_report(out, "empty run", empty_run_metrics());
  const std::string text = out.str();
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("NaN"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

TEST(ServiceMetricsZeroCompletions, CsvRowPrintsNoNaN) {
  CsvWriter csv(service_csv_header());
  append_service_csv_row(csv, "empty", empty_run_metrics());
  std::ostringstream out;
  csv.write(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("empty"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

TEST(ServiceMetricsZeroCompletions, CsvHeaderHasNewColumns) {
  const auto header = service_csv_header();
  auto has = [&](const char* name) {
    for (const auto& column : header) {
      if (column == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("retries"));
  EXPECT_TRUE(has("high_water"));
  EXPECT_TRUE(has("preemptions"));
  EXPECT_TRUE(has("migrations"));
  EXPECT_TRUE(has("evictions"));
  EXPECT_TRUE(has("gc_bytes"));
  EXPECT_TRUE(has("stage_hits"));
  EXPECT_TRUE(has("residency_high_water"));
}

}  // namespace
}  // namespace pmemflow::service

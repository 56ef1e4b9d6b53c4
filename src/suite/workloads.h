// The benchmark suite as registered campaign-engine workloads. Every table
// and figure lives here as an eval::Workload — quick/full cell enumeration
// plus an assembly pass that emits its exact metric stream and (in print
// mode) its exact stdout tables — so one warm process can run the whole
// suite through eval::CampaignEngine while `memsentry_cli run <workload>`
// runs any one of them standalone, bit-identically.
#ifndef MEMSENTRY_SRC_SUITE_WORKLOADS_H_
#define MEMSENTRY_SRC_SUITE_WORKLOADS_H_

#include <string_view>

#include "src/eval/campaign_engine.h"

namespace memsentry::suite {

// Per-family registration, in suite order (tables, figures, adversary).
void RegisterFigureWorkloads(eval::WorkloadRegistry& registry);
void RegisterTableWorkloads(eval::WorkloadRegistry& registry);
void RegisterAblationWorkloads(eval::WorkloadRegistry& registry);
void RegisterAdversaryWorkloads(eval::WorkloadRegistry& registry);

// The process-wide registry with every suite workload registered once.
const eval::WorkloadRegistry& SuiteRegistry();

// nullptr when `name` is not a registered suite workload (bench_substrate
// is a binary of its own: it measures host time through google-benchmark).
const eval::Workload* FindSuiteWorkload(std::string_view name);

}  // namespace memsentry::suite

#endif  // MEMSENTRY_SRC_SUITE_WORKLOADS_H_

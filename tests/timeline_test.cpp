// Tier-1 gate for causal timeline reconstruction (obs/timeline.h) and the
// run-report pipeline (obs/report.h):
//
//   * hand-built traces → exact per-leg durations, critical-org
//     attribution and culprit selection;
//   * Byzantine trace shapes → *flagged* timelines, never a crash;
//   * nearest-rank percentiles are exact;
//   * a traced experiment reconstructs byte-identically at --threads
//     1/2/4, and a re-parsed trace JSONL yields the byte-identical report
//     (the offline path and the live path must never drift);
//   * a profiled run is simulation-identical to an unprofiled one and the
//     profiler accounts for every processed event;
//   * a tiny tracer cap drops (counted, high-water == cap) and the drop
//     bookkeeping reaches the metrics registry as trace.dropped/trace.hwm.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace orderless {
namespace {

using obs::EventKind;
using obs::Segment;
using obs::TraceEvent;
using obs::TxStatus;

TraceEvent Instant(EventKind kind, sim::SimTime ts, std::uint32_t actor,
                   std::uint64_t tx, std::uint64_t aux = 0) {
  TraceEvent e;
  e.kind = kind;
  e.ts = ts;
  e.actor = actor;
  e.tx = tx;
  e.aux = aux;
  return e;
}

TraceEvent Span(EventKind kind, sim::SimTime start, sim::SimTime end,
                std::uint32_t actor, std::uint64_t tx,
                std::uint64_t aux = 0) {
  TraceEvent e = Instant(kind, start, actor, tx, aux);
  e.dur = end - start;
  return e;
}

std::uint64_t Seg(const obs::TxTimeline& t, Segment s) {
  EXPECT_TRUE(t.seg_present[static_cast<std::size_t>(s)])
      << obs::SegmentName(s);
  return t.seg_us[static_cast<std::size_t>(s)];
}

// One clean transaction: client 100, proposals to orgs 1 and 2, org 2 is
// the last to reply (critical endorser) and the last to be receipted
// (critical committer). Events appear in record order (spans at end time).
std::vector<TraceEvent> CleanSingleTx() {
  constexpr std::uint64_t kDigest = 0xD15E57;  // submit-phase key
  constexpr std::uint64_t kTxId = 0x7A1D;      // commit-phase key
  std::vector<TraceEvent> ev;
  ev.push_back(Instant(EventKind::kTxSubmit, 1000, 100, kDigest));
  ev.push_back(Instant(EventKind::kProposalSend, 1010, 100, kDigest, 1));
  ev.push_back(Instant(EventKind::kProposalSend, 1020, 100, kDigest, 2));
  ev.push_back(Span(EventKind::kEndorseExec, 1100, 1150, 1, kDigest));
  ev.push_back(Instant(EventKind::kEndorseReply, 1200, 100, kDigest, 1));
  ev.push_back(Span(EventKind::kEndorseExec, 1150, 1230, 2, kDigest));
  ev.push_back(Instant(EventKind::kEndorseReply, 1300, 100, kDigest, 2));
  ev.push_back(Instant(EventKind::kWriteSetMatch, 1350, 100, kTxId, kDigest));
  ev.push_back(Instant(EventKind::kCommitSend, 1360, 100, kTxId, 1));
  ev.push_back(Instant(EventKind::kCommitSend, 1370, 100, kTxId, 2));
  ev.push_back(Span(EventKind::kValidate, 1400, 1430, 2, kTxId, 1));
  ev.push_back(Span(EventKind::kValidate, 1420, 1445, 1, kTxId, 1));
  ev.push_back(Instant(EventKind::kLedgerAppend, 1450, 2, kTxId, 1));
  ev.push_back(Instant(EventKind::kLedgerAppend, 1460, 1, kTxId, 1));
  ev.push_back(Instant(EventKind::kReceipt, 1500, 100, kTxId, 1));
  ev.push_back(Instant(EventKind::kReceipt, 1550, 100, kTxId, 2));
  ev.push_back(Span(EventKind::kTxOutcome, 1000, 1600, 100, kTxId,
                    static_cast<std::uint64_t>(TxStatus::kCommitted)));
  return ev;
}

TEST(TimelineUnit, CleanSingleTxSegmentsAndAttribution) {
  const obs::TimelineSet set = obs::BuildTimelines(CleanSingleTx());
  ASSERT_EQ(set.txs.size(), 1u);
  EXPECT_EQ(set.orphan_org_events, 0u);
  const obs::TxTimeline& t = set.txs[0];
  EXPECT_EQ(t.flags, 0u) << obs::TimelineFlagNames(t.flags);
  EXPECT_TRUE(t.Committed());
  EXPECT_EQ(t.proposal_key, 0xD15E57u);
  EXPECT_EQ(t.tx_key, 0x7A1Du);
  EXPECT_EQ(t.client, 100u);
  EXPECT_EQ(t.LatencyUs(), 600u);

  ASSERT_TRUE(t.has_critical_endorser);
  EXPECT_EQ(t.critical_endorser, 2u);  // last reply before the match
  ASSERT_TRUE(t.has_critical_committer);
  EXPECT_EQ(t.critical_committer, 2u);  // last receipt before the outcome

  EXPECT_EQ(Seg(t, Segment::kEndorseFanout), 20u);   // 1000 → send@1020
  EXPECT_EQ(Seg(t, Segment::kEndorseNetOut), 130u);  // 1020 → exec@1150
  EXPECT_EQ(Seg(t, Segment::kEndorseExec), 80u);     // 1150 → 1230
  EXPECT_EQ(Seg(t, Segment::kEndorseNetBack), 70u);  // 1230 → reply@1300
  EXPECT_EQ(Seg(t, Segment::kMatchGap), 50u);        // 1300 → match@1350
  EXPECT_EQ(Seg(t, Segment::kCommitFanout), 20u);    // 1350 → send@1370
  EXPECT_EQ(Seg(t, Segment::kCommitNetOut), 30u);    // 1370 → val@1400
  EXPECT_EQ(Seg(t, Segment::kCommitValidate), 30u);  // 1400 → 1430
  EXPECT_EQ(Seg(t, Segment::kCommitApply), 20u);     // 1430 → append@1450
  EXPECT_EQ(Seg(t, Segment::kCommitNetBack), 100u);  // 1450 → receipt@1550
  EXPECT_EQ(Seg(t, Segment::kFinalize), 50u);        // 1550 → outcome@1600

  // The legs along the critical path tile the end-to-end latency exactly.
  std::uint64_t total = 0;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(Segment::kSegmentCount); ++i) {
    total += t.seg_us[i];
  }
  EXPECT_EQ(total, t.LatencyUs());

  Segment culprit;
  std::uint64_t dur = 0;
  std::uint32_t actor = 0;
  ASSERT_TRUE(obs::CulpritOf(t, culprit, dur, actor));
  EXPECT_EQ(culprit, Segment::kEndorseNetOut);  // 130us is the widest leg
  EXPECT_EQ(dur, 130u);
  EXPECT_EQ(actor, 2u);  // endorse wire legs attribute to the endorser
}

TEST(TimelineUnit, PipeAdmitSplitsCommitWireIntoQueueLeg) {
  std::vector<TraceEvent> ev = CleanSingleTx();
  // Commit admission instants at both committers, recorded after the commit
  // sends and before the validate spans. The critical committer (org 2)
  // admitted at 1390: the wire leg must end there and the dedup/queueing
  // gap until validate start becomes its own leg.
  ev.insert(ev.begin() + 10, Instant(EventKind::kPipeAdmit, 1385, 1, 0x7A1D, 0));
  ev.insert(ev.begin() + 11, Instant(EventKind::kPipeAdmit, 1390, 2, 0x7A1D, 0));
  const obs::TimelineSet set = obs::BuildTimelines(ev);
  ASSERT_EQ(set.txs.size(), 1u);
  EXPECT_EQ(set.orphan_org_events, 0u);
  const obs::TxTimeline& t = set.txs[0];
  EXPECT_EQ(t.flags, 0u) << obs::TimelineFlagNames(t.flags);

  EXPECT_EQ(Seg(t, Segment::kCommitNetOut), 20u);  // 1370 → admit@1390
  EXPECT_EQ(Seg(t, Segment::kCommitQueue), 10u);   // 1390 → validate@1400
  EXPECT_EQ(Seg(t, Segment::kCommitValidate), 30u);

  // The finer decomposition still tiles the end-to-end latency exactly.
  std::uint64_t total = 0;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(Segment::kSegmentCount); ++i) {
    total += t.seg_us[i];
  }
  EXPECT_EQ(total, t.LatencyUs());
}

TEST(TimelineUnit, ByzantineShapesFlaggedNotCrashed) {
  std::vector<TraceEvent> ev;
  // (a) Reply for a key nobody submitted, from an org never proposed to.
  ev.push_back(Instant(EventKind::kEndorseReply, 100, 100, 0xAAA, 5));
  // (b) Write-set match with zero replies seen, and no outcome ever.
  ev.push_back(Instant(EventKind::kTxSubmit, 200, 101, 0xBBB));
  ev.push_back(Instant(EventKind::kWriteSetMatch, 250, 101, 0xBB1, 0xBBB));
  // (c) An org judged the transaction invalid.
  ev.push_back(Instant(EventKind::kTxSubmit, 300, 102, 0xCCC));
  ev.push_back(Instant(EventKind::kWriteSetMatch, 350, 102, 0xCC1, 0xCCC));
  ev.push_back(Instant(EventKind::kCommitSend, 360, 102, 0xCC1, 3));
  ev.push_back(Span(EventKind::kValidate, 400, 420, 3, 0xCC1, /*valid=*/0));
  ev.push_back(Span(EventKind::kTxOutcome, 300, 500, 102, 0xCC1,
                    static_cast<std::uint64_t>(TxStatus::kRejected)));
  // (d) Receipt from an org the client never committed to.
  ev.push_back(Instant(EventKind::kTxSubmit, 600, 103, 0xDDD));
  ev.push_back(Instant(EventKind::kWriteSetMatch, 650, 103, 0xDD1, 0xDDD));
  ev.push_back(Instant(EventKind::kReceipt, 700, 103, 0xDD1, 7));
  ev.push_back(Span(EventKind::kTxOutcome, 600, 800, 103, 0xDD1,
                    static_cast<std::uint64_t>(TxStatus::kCommitted)));

  const obs::TimelineSet set = obs::BuildTimelines(ev);
  ASSERT_EQ(set.txs.size(), 4u);
  EXPECT_TRUE(set.txs[0].flags & obs::kFlagNoSubmit);
  EXPECT_TRUE(set.txs[0].flags & obs::kFlagUnsolicitedReply);
  EXPECT_TRUE(set.txs[1].flags & obs::kFlagMatchWithoutReply);
  EXPECT_TRUE(set.txs[1].flags & obs::kFlagNoOutcome);
  EXPECT_TRUE(set.txs[2].flags & obs::kFlagInvalidValidation);
  EXPECT_TRUE(set.txs[2].flags & obs::kFlagRejected);
  EXPECT_TRUE(set.txs[3].flags & obs::kFlagUnsolicitedReceipt);

  // Every flagged shape still analyzes and renders without crashing.
  const obs::TimelineAnalysis a = obs::Analyze(set, 10);
  EXPECT_EQ(a.flagged, 4u);
  EXPECT_EQ(a.rejected, 1u);
  EXPECT_EQ(a.committed, 1u);
  obs::ReportInputs in;
  in.events = &ev;
  in.label = "byzantine-shapes";
  const obs::RunReport report = obs::BuildReport(in);
  EXPECT_FALSE(obs::RenderReportText(report, obs::ReportMode::kFull).empty());
  EXPECT_FALSE(obs::ReportJson(report).empty());
}

TEST(TimelineUnit, NearestRankPercentilesAreExact) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 100; v >= 1; --v) samples.push_back(v);  // 1..100us
  const obs::DistSummary d = obs::Summarize(samples);
  EXPECT_EQ(d.count, 100u);
  EXPECT_DOUBLE_EQ(d.p50_ms, 0.050);   // nearest rank: ceil(.5*100) = 50th
  EXPECT_DOUBLE_EQ(d.p95_ms, 0.095);
  EXPECT_DOUBLE_EQ(d.p99_ms, 0.099);
  EXPECT_DOUBLE_EQ(d.max_ms, 0.100);
  EXPECT_DOUBLE_EQ(d.avg_ms, 0.0505);

  std::vector<std::uint64_t> one{7};
  const obs::DistSummary s = obs::Summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.007);
  EXPECT_DOUBLE_EQ(s.p99_ms, 0.007);
  EXPECT_DOUBLE_EQ(s.max_ms, 0.007);
}

// -------- traced-experiment fixtures --------

std::string TempPath(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem;
}

harness::ExperimentConfig SmallTracedConfig() {
  harness::ExperimentConfig config;
  config.system = harness::SystemKind::kOrderless;
  config.app = harness::AppKind::kSynthetic;
  config.num_orgs = 8;
  config.policy = core::EndorsementPolicy{3, 8};
  config.workload.arrival_tps = 400;
  config.workload.duration = sim::Sec(2);
  config.workload.num_clients = 40;
  config.seed = 11;
  return config;
}

struct TracedRun {
  harness::ExperimentResult result;
  std::string text;  // RenderReportText(kFull)
  std::string json;  // ReportJson
};

TracedRun RunTracedReport(unsigned threads) {
  obs::Tracer tracer;
  harness::ExperimentConfig config = SmallTracedConfig();
  config.tracer = &tracer;
  config.threads = threads;
  TracedRun run;
  run.result = harness::RunExperiment(config);
  obs::ReportInputs in;
  in.events = &tracer.events();
  in.names = obs::NamesFromTracer(tracer, tracer.events());
  in.label = "timeline-test";
  in.have_drop_info = true;
  in.dropped = tracer.dropped();
  in.trace_hwm = tracer.high_water();
  const obs::RunReport report = obs::BuildReport(in);
  run.text = obs::RenderReportText(report, obs::ReportMode::kFull);
  run.json = obs::ReportJson(report);
  return run;
}

TEST(TimelineReport, ByteIdenticalAcrossThreadCounts) {
  const TracedRun baseline = RunTracedReport(1);
  EXPECT_GT(baseline.result.metrics.committed_modify, 0u);
  EXPECT_FALSE(baseline.text.empty());
  for (const unsigned threads : {2u, 4u}) {
    const TracedRun run = RunTracedReport(threads);
    EXPECT_EQ(run.result.events_processed, baseline.result.events_processed)
        << "threads=" << threads;
    EXPECT_EQ(run.text, baseline.text) << "threads=" << threads;
    EXPECT_EQ(run.json, baseline.json) << "threads=" << threads;
  }
}

TEST(TimelineReport, RetracedFromJsonlByteIdentical) {
  obs::Tracer tracer;
  harness::ExperimentConfig config = SmallTracedConfig();
  config.tracer = &tracer;
  config.threads = 2;
  const harness::ExperimentResult result = harness::RunExperiment(config);
  EXPECT_GT(result.metrics.committed_modify, 0u);

  const std::string path = TempPath("timeline_test_retrace.jsonl");
  ASSERT_TRUE(obs::WriteJsonl(tracer, path));
  std::vector<TraceEvent> parsed;
  obs::ActorNames parsed_names;
  ASSERT_TRUE(obs::ParseJsonlTrace(path, parsed, parsed_names));
  std::remove(path.c_str());
  ASSERT_EQ(parsed.size(), tracer.events().size());

  // Drop bookkeeping is unknown on the offline path, so compare both
  // sides without it: everything events-derived must be byte-identical.
  obs::ReportInputs live;
  live.events = &tracer.events();
  live.names = obs::NamesFromTracer(tracer, tracer.events());
  live.label = "retrace";
  obs::ReportInputs offline;
  offline.events = &parsed;
  offline.names = parsed_names;
  offline.label = "retrace";
  const obs::RunReport live_report = obs::BuildReport(live);
  const obs::RunReport offline_report = obs::BuildReport(offline);
  EXPECT_EQ(obs::ReportJson(live_report), obs::ReportJson(offline_report));
  EXPECT_EQ(obs::RenderReportText(live_report, obs::ReportMode::kFull),
            obs::RenderReportText(offline_report, obs::ReportMode::kFull));
}

TEST(TimelineReport, ByzantineRunProducesFlaggedTimelines) {
  obs::Tracer tracer;
  harness::ExperimentConfig config = SmallTracedConfig();
  config.tracer = &tracer;
  config.byzantine_client_fraction = 0.5;
  config.byzantine_client_behavior.active = true;
  config.byzantine_client_behavior.inconsistent_clocks = true;
  const harness::ExperimentResult result = harness::RunExperiment(config);
  (void)result;

  obs::ReportInputs in;
  in.events = &tracer.events();
  in.names = obs::NamesFromTracer(tracer, tracer.events());
  in.label = "byzantine-clients";
  const obs::RunReport report = obs::BuildReport(in);
  EXPECT_GT(report.set.txs.size(), 0u);
  // Equivocating clients leave lifecycle events keyed by per-org digests
  // that never saw a submit: flagged timelines, never a crash.
  EXPECT_GT(report.analysis.flagged, 0u);
  EXPECT_FALSE(obs::RenderReportText(report, obs::ReportMode::kFull).empty());
}

TEST(TimelineProfiler, ProfiledRunIsIdenticalAndFullyAccounted) {
  harness::ExperimentConfig config = SmallTracedConfig();
  config.threads = 2;
  const harness::ExperimentResult plain = harness::RunExperiment(config);

  obs::Profiler profiler;
  config.profiler = &profiler;
  const harness::ExperimentResult profiled = harness::RunExperiment(config);

  // The profiler reads host clocks but never touches simulated state.
  EXPECT_EQ(profiled.events_processed, plain.events_processed);
  EXPECT_EQ(profiled.metrics.committed_modify, plain.metrics.committed_modify);
  EXPECT_EQ(profiled.metrics.submitted, plain.metrics.submitted);

  // Coverage: every processed simulator event was attributed to a lane.
  EXPECT_EQ(profiler.total_events(), profiled.events_processed);
  EXPECT_GT(profiler.total_busy_ns(), 0u);
  EXPECT_FALSE(profiler.RenderText().empty());
}

TEST(TimelineOverflow, TinyCapDropsAreCountedAndExported) {
  obs::TracerConfig tiny;
  tiny.max_events = 64;
  obs::Tracer tracer(tiny);
  harness::ExperimentConfig config = SmallTracedConfig();
  config.tracer = &tracer;
  const harness::ExperimentResult result = harness::RunExperiment(config);
  EXPECT_GT(result.metrics.committed_modify, 0u);

  EXPECT_EQ(tracer.events().size(), 64u);
  EXPECT_EQ(tracer.high_water(), 64u);
  EXPECT_GT(tracer.dropped(), 0u);

  obs::MetricsRegistry registry;
  obs::FillTraceMetrics(tracer, registry);
  EXPECT_EQ(registry.counter("trace.dropped").value(), tracer.dropped());
  EXPECT_EQ(registry.counter("trace.hwm").value(), 64u);

  // A truncated buffer still reconstructs (flagged, not crashed).
  obs::ReportInputs in;
  in.events = &tracer.events();
  in.label = "tiny-cap";
  in.have_drop_info = true;
  in.dropped = tracer.dropped();
  in.trace_hwm = tracer.high_water();
  const obs::RunReport report = obs::BuildReport(in);
  EXPECT_FALSE(obs::RenderReportText(report,
                                     obs::ReportMode::kSummary).empty());
}

}  // namespace
}  // namespace orderless

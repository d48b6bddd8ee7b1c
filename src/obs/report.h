// Run-report assembly: turns a trace buffer (live Tracer or re-parsed
// trace JSONL) plus optional drop bookkeeping into one RunReport —
// per-phase latency breakdown with critical-path attribution (obs/
// timeline.h), convergence-lag heat per org × object, gossip health and
// the checkpoint audit trail — renderable as terminal text or emitted as
// machine-readable report.json (validated against
// docs/schema/report.schema.json by obs_lint).
//
// Shared by tools/obs_report (the CLI) and tools/chaos_explorer (whose
// failure triage and --report flag route through these helpers), so both
// always agree on what a timeline looks like.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/timeline.h"
#include "obs/trace.h"

namespace orderless::obs {

/// Node-id → display-name lookup ("org-3", "client-17"); unknown ids
/// render as "node-<id>" so Byzantine junk never breaks a report.
struct ActorNames {
  std::unordered_map<std::uint32_t, std::string> names;
  std::string Of(std::uint32_t node) const;
};

struct ReportInputs {
  const std::vector<TraceEvent>* events = nullptr;
  ActorNames names;
  std::string label;  // free-form run identifier printed in the header
  /// Buffer-drop bookkeeping; unknown when re-parsing a JSONL file
  /// (have_drop_info = false → reported as 0 / "unknown").
  bool have_drop_info = false;
  std::uint64_t dropped = 0;
  std::uint64_t trace_hwm = 0;
  std::size_t slowest_n = 10;
};

/// Per-org convergence row (applies / lag from kConverge events).
struct ConvergenceRow {
  std::uint32_t org = 0;
  std::uint64_t applies = 0;
  double avg_lag_ms = 0;
  double max_lag_ms = 0;
};

/// Convergence-lag heat table: rows are orgs, columns the hottest
/// kHeatObjects objects (by total applies, folded "other" column last).
/// Object identity is the 32-bit FNV-1a hash of the object id that
/// kCrdtApply carries in aux (32-bit so it survives the JSONL number
/// round-trip exactly); 0 — untagged applies — folds into other.
struct HeatCell {
  std::uint64_t applies = 0;
  double avg_lag_ms = 0;
};
struct HeatRow {
  std::uint32_t org = 0;
  std::vector<HeatCell> cells;  // parallel to HeatTable::objects, + other
};
struct HeatTable {
  static constexpr std::size_t kHeatObjects = 16;
  std::vector<std::uint64_t> objects;  // column object hashes
  bool has_other = false;              // trailing fold column present
  std::vector<HeatRow> rows;           // by org node id
};

struct GossipRow {
  std::uint32_t org = 0;
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t peers = 0;  // distinct send/recv counterparties
};

/// One checkpoint audit-trail entry (kCkpt* events in record order).
struct CheckpointAuditEntry {
  sim::SimTime ts = 0;
  EventKind kind = EventKind::kCkptSeal;
  std::uint32_t actor = 0;
  std::uint64_t digest = 0;
  std::uint64_t aux = 0;
};

struct CheckpointSummary {
  std::uint64_t sealed = 0;
  std::uint64_t sent = 0;
  std::uint64_t installed = 0;
  std::uint64_t pruned = 0;
  std::uint64_t attested = 0;
  std::uint64_t rejected = 0;
  /// Capped audit trail (first kMaxAudit entries; truncated count kept).
  static constexpr std::size_t kMaxAudit = 64;
  std::vector<CheckpointAuditEntry> audit;
  std::uint64_t audit_truncated = 0;
};

struct RunReport {
  std::string label;
  ActorNames names;
  std::uint64_t total_events = 0;
  bool have_drop_info = false;
  std::uint64_t dropped = 0;
  std::uint64_t trace_hwm = 0;

  TimelineSet set;
  TimelineAnalysis analysis;
  std::vector<ConvergenceRow> convergence;  // by org node id
  HeatTable heat;
  std::vector<GossipRow> gossip;  // by org node id
  CheckpointSummary checkpoints;
};

/// Builds the full report from one ordered event buffer. Deterministic:
/// identical buffers yield byte-identical Render/Json output.
RunReport BuildReport(const ReportInputs& inputs);

enum class ReportMode { kSummary, kTimelines, kFull };
/// Parses a --report mode name; returns false on unknown names (callers
/// list {summary, timelines, full} and exit 2, matching --preset).
bool ParseReportMode(const std::string& name, ReportMode& mode);

/// Terminal rendering. kSummary: header, phase table, critical orgs,
/// convergence, gossip, checkpoint counts. kTimelines: summary plus the
/// slowest-N with per-leg breakdown. kFull: everything plus the heat
/// table and checkpoint audit trail.
std::string RenderReportText(const RunReport& report, ReportMode mode);

/// Machine-readable report document (docs/schema/report.schema.json).
std::string ReportJson(const RunReport& report);
bool WriteReportJson(const RunReport& report, const std::string& path);

/// One-line event render identical in shape to Tracer::Render, but
/// usable on re-parsed buffers (chaos-triage tail dumps route through
/// this so live and offline triage read the same).
std::string RenderEventLine(const TraceEvent& event, const ActorNames& names);

/// Multi-line per-transaction critical-path breakdown (chaos triage and
/// the timelines report mode share it).
std::string RenderTimeline(const TxTimeline& t, const ActorNames& names);

/// Parses a trace JSONL file (obs::WriteJsonl format) back into an event
/// buffer + actor-name table. Returns false (with a stderr diagnostic)
/// on unreadable files or malformed lines; unknown kind names are
/// skipped with a warning so newer traces degrade gracefully.
bool ParseJsonlTrace(const std::string& path, std::vector<TraceEvent>& events,
                     ActorNames& names);

/// Copies a live tracer's actor-name table (the names map the exporters
/// would have written) for ReportInputs.
ActorNames NamesFromTracer(const Tracer& tracer,
                           const std::vector<TraceEvent>& events);

}  // namespace orderless::obs

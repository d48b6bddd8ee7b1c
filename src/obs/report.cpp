#include "obs/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "obs/json_subset.h"

namespace orderless::obs {

namespace {

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

double Ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

/// JSON string escaping for actor names / labels (the emitters only
/// produce plain ASCII, but Byzantine labels should not break the doc).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendDist(std::string& out, const DistSummary& d) {
  Appendf(out,
          "{\"count\": %" PRIu64
          ", \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
          "\"avg_ms\": %.3f, \"max_ms\": %.3f}",
          d.count, d.p50_ms, d.p95_ms, d.p99_ms, d.avg_ms, d.max_ms);
}

}  // namespace

std::string ActorNames::Of(std::uint32_t node) const {
  const auto it = names.find(node);
  if (it != names.end() && !it->second.empty() && it->second != "?") {
    return it->second;
  }
  return "node-" + std::to_string(node);
}

ActorNames NamesFromTracer(const Tracer& tracer,
                           const std::vector<TraceEvent>& events) {
  ActorNames names;
  for (const TraceEvent& e : events) {
    if (names.names.count(e.actor) == 0) {
      names.names.emplace(e.actor, tracer.ActorName(e.actor));
    }
    // aux carries a counterparty node for the fan-out / gossip kinds.
    switch (e.kind) {
      case EventKind::kProposalSend:
      case EventKind::kEndorseReply:
      case EventKind::kCommitSend:
      case EventKind::kGossipSend:
      case EventKind::kGossipRecv:
      case EventKind::kReceipt: {
        const auto peer = static_cast<std::uint32_t>(e.aux);
        if (names.names.count(peer) == 0) {
          names.names.emplace(peer, tracer.ActorName(peer));
        }
        break;
      }
      default:
        break;
    }
  }
  return names;
}

RunReport BuildReport(const ReportInputs& inputs) {
  RunReport r;
  r.label = inputs.label;
  r.names = inputs.names;
  r.have_drop_info = inputs.have_drop_info;
  r.dropped = inputs.dropped;
  r.trace_hwm = inputs.trace_hwm;
  const std::vector<TraceEvent>& events = *inputs.events;
  r.total_events = events.size();

  r.set = BuildTimelines(events);
  r.analysis = Analyze(r.set, inputs.slowest_n);

  // Convergence rows + heat accumulation + gossip + checkpoints: one
  // ordered pass; all aggregation keyed through std::map / std::set so
  // the output order is node id / hash order, never hash-map order.
  struct ConvAcc {
    std::uint64_t applies = 0, lag_sum = 0, lag_max = 0;
  };
  std::map<std::uint32_t, ConvAcc> conv;
  std::unordered_map<std::uint64_t, std::uint64_t> tx_object;  // tx → obj
  struct HeatAcc {
    std::uint64_t applies = 0, lag_sum = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, HeatAcc> heat;
  std::map<std::uint64_t, std::uint64_t> object_applies;
  struct GossipAcc {
    std::uint64_t sends = 0, recvs = 0;
    std::set<std::uint32_t> peers;
  };
  std::map<std::uint32_t, GossipAcc> gossip;

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kCrdtApply:
        if (e.aux != 0) tx_object.emplace(e.tx, e.aux);
        break;
      case EventKind::kConverge: {
        ConvAcc& c = conv[e.actor];
        ++c.applies;
        c.lag_sum += e.aux;
        c.lag_max = std::max(c.lag_max, e.aux);
        const auto obj_it = tx_object.find(e.tx);
        const std::uint64_t obj =
            obj_it != tx_object.end() ? obj_it->second : 0;
        HeatAcc& h = heat[{e.actor, obj}];
        ++h.applies;
        h.lag_sum += e.aux;
        object_applies[obj] += 1;
        break;
      }
      case EventKind::kGossipSend: {
        GossipAcc& g = gossip[e.actor];
        ++g.sends;
        g.peers.insert(static_cast<std::uint32_t>(e.aux));
        break;
      }
      case EventKind::kGossipRecv: {
        GossipAcc& g = gossip[e.actor];
        ++g.recvs;
        g.peers.insert(static_cast<std::uint32_t>(e.aux));
        break;
      }
      case EventKind::kCkptSeal:
      case EventKind::kCkptSend:
      case EventKind::kCkptInstall:
      case EventKind::kCkptPrune:
      case EventKind::kCkptAttest:
      case EventKind::kCkptReject: {
        CheckpointSummary& ck = r.checkpoints;
        switch (e.kind) {
          case EventKind::kCkptSeal: ++ck.sealed; break;
          case EventKind::kCkptSend: ++ck.sent; break;
          case EventKind::kCkptInstall: ++ck.installed; break;
          case EventKind::kCkptPrune: ++ck.pruned; break;
          case EventKind::kCkptAttest: ++ck.attested; break;
          default: ++ck.rejected; break;
        }
        if (ck.audit.size() < CheckpointSummary::kMaxAudit) {
          ck.audit.push_back(
              CheckpointAuditEntry{e.ts, e.kind, e.actor, e.tx, e.aux});
        } else {
          ++ck.audit_truncated;
        }
        break;
      }
      default:
        break;
    }
  }

  for (const auto& [org, c] : conv) {
    ConvergenceRow row;
    row.org = org;
    row.applies = c.applies;
    row.avg_lag_ms =
        c.applies == 0 ? 0 : Ms(c.lag_sum) / static_cast<double>(c.applies);
    row.max_lag_ms = Ms(c.lag_max);
    r.convergence.push_back(row);
  }

  // Heat columns: hottest objects by total applies (ties: smaller hash),
  // untagged (0) and beyond-top-N objects folded into "other".
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_applies;
  for (const auto& [obj, applies] : object_applies) {
    if (obj != 0) by_applies.emplace_back(obj, applies);
  }
  std::sort(by_applies.begin(), by_applies.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (by_applies.size() > HeatTable::kHeatObjects) {
    by_applies.resize(HeatTable::kHeatObjects);
  }
  for (const auto& [obj, applies] : by_applies) {
    (void)applies;
    r.heat.objects.push_back(obj);
  }
  std::set<std::uint64_t> kept(r.heat.objects.begin(), r.heat.objects.end());
  r.heat.has_other = kept.size() < object_applies.size();
  if (!heat.empty()) {
    const std::size_t cols = r.heat.objects.size() + (r.heat.has_other ? 1 : 0);
    std::map<std::uint32_t, HeatRow> rows;
    for (const auto& [key, acc] : heat) {
      const auto [org, obj] = key;
      HeatRow& row = rows[org];
      if (row.cells.empty()) {
        row.org = org;
        row.cells.resize(cols);
      }
      std::size_t col = r.heat.objects.size();  // other
      for (std::size_t i = 0; i < r.heat.objects.size(); ++i) {
        if (r.heat.objects[i] == obj) {
          col = i;
          break;
        }
      }
      if (col >= row.cells.size()) continue;  // no other column, untagged
      HeatCell& cell = row.cells[col];
      const std::uint64_t applies = cell.applies + acc.applies;
      cell.avg_lag_ms =
          (cell.avg_lag_ms * static_cast<double>(cell.applies) +
           Ms(acc.lag_sum)) /
          static_cast<double>(applies);
      cell.applies = applies;
    }
    for (auto& [org, row] : rows) {
      (void)org;
      r.heat.rows.push_back(std::move(row));
    }
  }

  for (const auto& [org, g] : gossip) {
    GossipRow row;
    row.org = org;
    row.sends = g.sends;
    row.recvs = g.recvs;
    row.peers = g.peers.size();
    r.gossip.push_back(row);
  }
  return r;
}

bool ParseReportMode(const std::string& name, ReportMode& mode) {
  if (name == "summary") mode = ReportMode::kSummary;
  else if (name == "timelines") mode = ReportMode::kTimelines;
  else if (name == "full") mode = ReportMode::kFull;
  else return false;
  return true;
}

std::string RenderEventLine(const TraceEvent& event, const ActorNames& names) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%10.3fms %-14s %-10s tx=%016llx aux=%llu dur=%lluus",
                sim::ToMs(event.ts),
                std::string(EventKindName(event.kind)).c_str(),
                names.Of(event.actor).c_str(),
                static_cast<unsigned long long>(event.tx),
                static_cast<unsigned long long>(event.aux),
                static_cast<unsigned long long>(event.dur));
  return buf;
}

std::string RenderTimeline(const TxTimeline& t, const ActorNames& names) {
  std::string out;
  const char* status = "no-outcome";
  if (t.has_outcome) {
    switch (t.status) {
      case TxStatus::kCommitted: status = "committed"; break;
      case TxStatus::kRead: status = "read"; break;
      case TxStatus::kRejected: status = "rejected"; break;
      case TxStatus::kFailed: status = "failed"; break;
    }
  }
  Appendf(out, "  tx %016llx",
          static_cast<unsigned long long>(t.tx_key ? t.tx_key
                                                   : t.proposal_key));
  if (t.tx_key != 0 && t.proposal_key != t.tx_key) {
    Appendf(out, " (proposal %016llx)",
            static_cast<unsigned long long>(t.proposal_key));
  }
  Appendf(out, " %s %.3fms %s", status,
          t.has_outcome ? Ms(t.LatencyUs()) : 0.0,
          names.Of(t.client).c_str());
  const std::string flags = TimelineFlagNames(t.flags);
  if (!flags.empty()) Appendf(out, " flags=%s", flags.c_str());
  out += '\n';
  for (std::size_t s = 0;
       s < static_cast<std::size_t>(Segment::kSegmentCount); ++s) {
    if (!t.seg_present[s]) continue;
    const auto seg = static_cast<Segment>(s);
    Appendf(out, "    %-16s %9.3fms",
            std::string(SegmentName(seg)).c_str(), Ms(t.seg_us[s]));
    switch (seg) {
      case Segment::kEndorseNetOut:
      case Segment::kEndorseExec:
      case Segment::kEndorseNetBack:
        Appendf(out, "  %s", names.Of(t.critical_endorser).c_str());
        break;
      case Segment::kCommitNetOut:
      case Segment::kCommitQueue:
      case Segment::kCommitValidate:
      case Segment::kCommitApply:
      case Segment::kCommitNetBack:
        Appendf(out, "  %s", names.Of(t.critical_committer).c_str());
        break;
      default:
        break;
    }
    out += '\n';
  }
  Segment culprit;
  std::uint64_t dur;
  std::uint32_t actor;
  if (CulpritOf(t, culprit, dur, actor)) {
    Appendf(out, "    culprit: %s %.3fms @ %s\n",
            std::string(SegmentName(culprit)).c_str(), Ms(dur),
            names.Of(actor).c_str());
  }
  return out;
}

std::string RenderReportText(const RunReport& r, ReportMode mode) {
  std::string out;
  const TimelineAnalysis& a = r.analysis;
  Appendf(out, "=== run report: %s ===\n", r.label.c_str());
  Appendf(out,
          "events %" PRIu64 "  txs %zu  committed %" PRIu64 "  reads %" PRIu64
          "  failed %" PRIu64 "  rejected %" PRIu64 "  in-flight %" PRIu64
          "  flagged %" PRIu64 "\n",
          r.total_events, r.set.txs.size(), a.committed, a.reads, a.failed,
          a.rejected, a.no_outcome, a.flagged);
  if (r.have_drop_info) {
    Appendf(out, "trace buffer: dropped %" PRIu64 ", high-water %" PRIu64 "\n",
            r.dropped, r.trace_hwm);
  } else {
    out += "trace buffer: drop counters unknown (offline trace)\n";
  }
  if (r.set.orphan_org_events != 0) {
    Appendf(out, "orphan org-side events (no matching timeline): %" PRIu64
            "\n", r.set.orphan_org_events);
  }
  Appendf(out,
          "latency (committed+read): p50 %.3fms  p95 %.3fms  p99 %.3fms  "
          "avg %.3fms  max %.3fms  (n=%" PRIu64 ")\n",
          a.latency.p50_ms, a.latency.p95_ms, a.latency.p99_ms,
          a.latency.avg_ms, a.latency.max_ms, a.latency.count);

  if (!a.phases.empty()) {
    out += "\n--- critical-path phases ---\n";
    Appendf(out, "%-16s %8s %9s %9s %9s %9s %9s %6s\n", "phase", "count",
            "p50ms", "p95ms", "p99ms", "avgms", "maxms", "crit%");
    for (const PhaseStat& p : a.phases) {
      Appendf(out, "%-16s %8" PRIu64 " %9.3f %9.3f %9.3f %9.3f %9.3f %5.1f%%\n",
              std::string(SegmentName(p.segment)).c_str(), p.dist.count,
              p.dist.p50_ms, p.dist.p95_ms, p.dist.p99_ms, p.dist.avg_ms,
              p.dist.max_ms, p.critical_share * 100.0);
    }
  }

  if (!a.critical_orgs.empty()) {
    out += "\n--- critical-path orgs (times an org closed a quorum) ---\n";
    for (const CriticalOrgCount& c : a.critical_orgs) {
      Appendf(out, "%-10s endorse %6" PRIu64 "  commit %6" PRIu64 "\n",
              r.names.Of(c.org).c_str(), c.endorse_hits, c.commit_hits);
    }
  }

  if (!r.convergence.empty()) {
    out += "\n--- convergence ---\n";
    for (const ConvergenceRow& row : r.convergence) {
      Appendf(out,
              "%-10s applies %6" PRIu64 "  avg lag %8.3fms  max lag %8.3fms\n",
              r.names.Of(row.org).c_str(), row.applies, row.avg_lag_ms,
              row.max_lag_ms);
    }
  }

  if (!r.gossip.empty()) {
    out += "\n--- gossip health ---\n";
    for (const GossipRow& g : r.gossip) {
      Appendf(out, "%-10s sends %6" PRIu64 "  recvs %6" PRIu64
              "  peers %3" PRIu64 "\n",
              r.names.Of(g.org).c_str(), g.sends, g.recvs, g.peers);
    }
  }

  const CheckpointSummary& ck = r.checkpoints;
  if (ck.sealed + ck.sent + ck.installed + ck.pruned + ck.attested +
          ck.rejected !=
      0) {
    out += "\n--- checkpoints ---\n";
    Appendf(out,
            "sealed %" PRIu64 "  sent %" PRIu64 "  installed %" PRIu64
            "  pruned %" PRIu64 "  attested %" PRIu64 "  rejected %" PRIu64
            "\n",
            ck.sealed, ck.sent, ck.installed, ck.pruned, ck.attested,
            ck.rejected);
  }

  if (mode != ReportMode::kSummary && !a.slowest.empty()) {
    out += "\n--- slowest transactions ---\n";
    // Rebuild the timeline rows for the slow set (keys → set index).
    for (const SlowTx& s : a.slowest) {
      for (const TxTimeline& t : r.set.txs) {
        if (t.proposal_key == s.proposal_key && t.tx_key == s.tx_key) {
          out += RenderTimeline(t, r.names);
          break;
        }
      }
    }
  }

  if (mode == ReportMode::kFull && !r.heat.rows.empty()) {
    out += "\n--- convergence-lag heat (avg ms per org x object) ---\n";
    Appendf(out, "%-10s", "org");
    for (std::uint64_t obj : r.heat.objects) {
      Appendf(out, " %10.8llx", static_cast<unsigned long long>(obj));
    }
    if (r.heat.has_other) Appendf(out, " %10s", "other");
    out += '\n';
    for (const HeatRow& row : r.heat.rows) {
      Appendf(out, "%-10s", r.names.Of(row.org).c_str());
      for (const HeatCell& cell : row.cells) {
        if (cell.applies == 0) {
          Appendf(out, " %10s", "-");
        } else {
          Appendf(out, " %10.3f", cell.avg_lag_ms);
        }
      }
      out += '\n';
    }
  }

  if (mode == ReportMode::kFull && !ck.audit.empty()) {
    out += "\n--- checkpoint audit trail ---\n";
    for (const CheckpointAuditEntry& e : ck.audit) {
      Appendf(out, "%10.3fms %-12s %-10s digest=%016llx aux=%llu\n",
              sim::ToMs(e.ts), std::string(EventKindName(e.kind)).c_str(),
              r.names.Of(e.actor).c_str(),
              static_cast<unsigned long long>(e.digest),
              static_cast<unsigned long long>(e.aux));
    }
    if (ck.audit_truncated != 0) {
      Appendf(out, "... %" PRIu64 " more checkpoint events\n",
              ck.audit_truncated);
    }
  }
  return out;
}

std::string ReportJson(const RunReport& r) {
  const TimelineAnalysis& a = r.analysis;
  std::string out;
  out += "{\n  \"report\": \"orderless-run-report-v1\",\n";
  Appendf(out, "  \"label\": \"%s\",\n", JsonEscape(r.label).c_str());
  Appendf(out,
          "  \"summary\": {\"events\": %" PRIu64 ", \"txs\": %zu, "
          "\"committed\": %" PRIu64 ", \"reads\": %" PRIu64
          ", \"failed\": %" PRIu64 ", \"rejected\": %" PRIu64
          ", \"in_flight\": %" PRIu64 ", \"flagged\": %" PRIu64
          ", \"orphan_org_events\": %" PRIu64 ", \"dropped\": %" PRIu64
          ", \"trace_hwm\": %" PRIu64 "},\n",
          r.total_events, r.set.txs.size(), a.committed, a.reads, a.failed,
          a.rejected, a.no_outcome, a.flagged, r.set.orphan_org_events,
          r.dropped, r.trace_hwm);
  out += "  \"latency\": ";
  AppendDist(out, a.latency);
  out += ",\n  \"phases\": [\n";
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const PhaseStat& p = a.phases[i];
    Appendf(out, "    {\"phase\": \"%s\", \"dist\": ",
            std::string(SegmentName(p.segment)).c_str());
    AppendDist(out, p.dist);
    Appendf(out, ", \"critical_hits\": %" PRIu64
            ", \"critical_share\": %.4f}%s\n",
            p.critical_hits, p.critical_share,
            i + 1 < a.phases.size() ? "," : "");
  }
  out += "  ],\n  \"critical_orgs\": [\n";
  for (std::size_t i = 0; i < a.critical_orgs.size(); ++i) {
    const CriticalOrgCount& c = a.critical_orgs[i];
    Appendf(out,
            "    {\"org\": \"%s\", \"endorse_hits\": %" PRIu64
            ", \"commit_hits\": %" PRIu64 "}%s\n",
            JsonEscape(r.names.Of(c.org)).c_str(), c.endorse_hits,
            c.commit_hits, i + 1 < a.critical_orgs.size() ? "," : "");
  }
  out += "  ],\n  \"slowest\": [\n";
  for (std::size_t i = 0; i < a.slowest.size(); ++i) {
    const SlowTx& s = a.slowest[i];
    Appendf(out,
            "    {\"tx\": \"%016" PRIx64 "\", \"proposal\": \"%016" PRIx64
            "\", \"latency_ms\": %.3f",
            s.tx_key, s.proposal_key, Ms(s.latency_us));
    if (s.has_culprit) {
      Appendf(out,
              ", \"culprit_phase\": \"%s\", \"culprit_actor\": \"%s\", "
              "\"culprit_ms\": %.3f",
              std::string(SegmentName(s.culprit)).c_str(),
              JsonEscape(r.names.Of(s.culprit_actor)).c_str(),
              Ms(s.culprit_us));
    }
    Appendf(out, ", \"flags\": \"%s\"}%s\n",
            TimelineFlagNames(s.flags).c_str(),
            i + 1 < a.slowest.size() ? "," : "");
  }
  out += "  ],\n  \"convergence\": [\n";
  for (std::size_t i = 0; i < r.convergence.size(); ++i) {
    const ConvergenceRow& row = r.convergence[i];
    Appendf(out,
            "    {\"org\": \"%s\", \"applies\": %" PRIu64
            ", \"avg_lag_ms\": %.3f, \"max_lag_ms\": %.3f}%s\n",
            JsonEscape(r.names.Of(row.org)).c_str(), row.applies,
            row.avg_lag_ms, row.max_lag_ms,
            i + 1 < r.convergence.size() ? "," : "");
  }
  out += "  ],\n  \"heat\": {\"objects\": [";
  for (std::size_t i = 0; i < r.heat.objects.size(); ++i) {
    Appendf(out, "%s\"%016" PRIx64 "\"", i ? ", " : "", r.heat.objects[i]);
  }
  Appendf(out, "], \"has_other\": %s, \"rows\": [\n",
          r.heat.has_other ? "true" : "false");
  for (std::size_t i = 0; i < r.heat.rows.size(); ++i) {
    const HeatRow& row = r.heat.rows[i];
    Appendf(out, "    {\"org\": \"%s\", \"cells\": [",
            JsonEscape(r.names.Of(row.org)).c_str());
    for (std::size_t j = 0; j < row.cells.size(); ++j) {
      Appendf(out, "%s{\"applies\": %" PRIu64 ", \"avg_lag_ms\": %.3f}",
              j ? ", " : "", row.cells[j].applies, row.cells[j].avg_lag_ms);
    }
    Appendf(out, "]}%s\n", i + 1 < r.heat.rows.size() ? "," : "");
  }
  out += "  ]},\n  \"gossip\": [\n";
  for (std::size_t i = 0; i < r.gossip.size(); ++i) {
    const GossipRow& g = r.gossip[i];
    Appendf(out,
            "    {\"org\": \"%s\", \"sends\": %" PRIu64 ", \"recvs\": %" PRIu64
            ", \"peers\": %" PRIu64 "}%s\n",
            JsonEscape(r.names.Of(g.org)).c_str(), g.sends, g.recvs, g.peers,
            i + 1 < r.gossip.size() ? "," : "");
  }
  const CheckpointSummary& ck = r.checkpoints;
  out += "  ],\n";
  Appendf(out,
          "  \"checkpoints\": {\"sealed\": %" PRIu64 ", \"sent\": %" PRIu64
          ", \"installed\": %" PRIu64 ", \"pruned\": %" PRIu64
          ", \"attested\": %" PRIu64 ", \"rejected\": %" PRIu64
          ", \"audit_truncated\": %" PRIu64 ", \"audit\": [\n",
          ck.sealed, ck.sent, ck.installed, ck.pruned, ck.attested,
          ck.rejected, ck.audit_truncated);
  for (std::size_t i = 0; i < ck.audit.size(); ++i) {
    const CheckpointAuditEntry& e = ck.audit[i];
    Appendf(out,
            "    {\"ts_ms\": %.3f, \"kind\": \"%s\", \"actor\": \"%s\", "
            "\"digest\": \"%016" PRIx64 "\", \"aux\": %" PRIu64 "}%s\n",
            sim::ToMs(e.ts), std::string(EventKindName(e.kind)).c_str(),
            JsonEscape(r.names.Of(e.actor)).c_str(), e.digest, e.aux,
            i + 1 < ck.audit.size() ? "," : "");
  }
  out += "  ]}\n}\n";
  return out;
}

bool WriteReportJson(const RunReport& report, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  const std::string doc = ReportJson(report);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), out) == doc.size();
  std::fclose(out);
  return ok;
}

bool ParseJsonlTrace(const std::string& path, std::vector<TraceEvent>& events,
                     ActorNames& names) {
  std::string text;
  if (!json::ReadFile(path, text)) {
    std::fprintf(stderr, "cannot read trace %s\n", path.c_str());
    return false;
  }
  // Kind-name reverse lookup (stable names, see obs/trace.cpp).
  std::unordered_map<std::string, EventKind> kinds;
  for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kKindCount);
       ++k) {
    const auto kind = static_cast<EventKind>(k);
    kinds.emplace(std::string(EventKindName(kind)), kind);
  }
  std::size_t line_no = 0;
  std::size_t start = 0;
  std::size_t unknown_kinds = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    json::JsonValue doc;
    if (!json::ParseDocument(line, path + ":" + std::to_string(line_no),
                             doc)) {
      return false;
    }
    const json::JsonValue* ts = doc.Find("ts");
    const json::JsonValue* kind = doc.Find("kind");
    const json::JsonValue* actor = doc.Find("actor");
    const json::JsonValue* node = doc.Find("node");
    const json::JsonValue* tx = doc.Find("tx");
    const json::JsonValue* aux = doc.Find("aux");
    const json::JsonValue* dur = doc.Find("dur");
    if (!ts || !kind || !node || !tx || !aux || !dur ||
        ts->type != json::JsonValue::Type::kNumber ||
        kind->type != json::JsonValue::Type::kString ||
        node->type != json::JsonValue::Type::kNumber ||
        tx->type != json::JsonValue::Type::kString ||
        aux->type != json::JsonValue::Type::kNumber ||
        dur->type != json::JsonValue::Type::kNumber) {
      std::fprintf(stderr, "%s:%zu: not a trace event record\n", path.c_str(),
                   line_no);
      return false;
    }
    const auto kind_it = kinds.find(kind->string);
    if (kind_it == kinds.end()) {
      ++unknown_kinds;  // newer trace than this binary: degrade gracefully
      continue;
    }
    TraceEvent e;
    // Integer fields re-parse the raw tokens: aux carries full 64-bit digest
    // keys that a double round-trip would truncate above 2^53.
    e.ts = std::strtoull(ts->string.c_str(), nullptr, 10);
    e.dur = std::strtoull(dur->string.c_str(), nullptr, 10);
    e.tx = std::strtoull(tx->string.c_str(), nullptr, 16);
    e.aux = std::strtoull(aux->string.c_str(), nullptr, 10);
    e.actor = static_cast<std::uint32_t>(node->number);
    e.kind = kind_it->second;
    events.push_back(e);
    if (actor && actor->type == json::JsonValue::Type::kString &&
        names.names.count(e.actor) == 0) {
      names.names.emplace(e.actor, actor->string);
    }
  }
  if (unknown_kinds != 0) {
    std::fprintf(stderr, "%s: skipped %zu events with unknown kinds\n",
                 path.c_str(), unknown_kinds);
  }
  return true;
}

}  // namespace orderless::obs

// The cost table: every simulated CPU service time and node core count that
// a handler charges, for all five systems, in one place. A sim::Processor
// queue stands in for each node's 4-vCPU VM (PAPER.md §2); a handler charges
// a row times the count of the work it performs. Where two systems charge
// the same work at the same value they share one row. Where a baseline skips
// a primitive its paper counterpart performs, its row is an explicit 0 with
// the reason, and the handler still multiplies it by the real count, so
// charging that work is a one-number edit. EXPERIMENTS.md prints this table
// with each row's handler and count.
#pragma once

#include <cstddef>

#include "sim/time.h"

namespace orderless::sim::cost {

// ---- Node shape --------------------------------------------------------

/// Cores of every organization, peer, replica and Sync HotStuff leader
/// (the paper's 4-vCPU VMs).
inline constexpr unsigned kNodeCores = 4;
/// Cores of the Solo orderer and the BIDL sequencer: one ordering core,
/// the coordination bottleneck those systems queue on.
inline constexpr unsigned kSequencerCores = 1;

// ---- OrderlessChain organization (core/org.cpp) ------------------------
// Calibrated so a 4-vCPU organization saturates where the paper's does
// (Fig. 6/7 knees).

/// Per proposal: contract execution and the endorsement signature.
/// OrgTimingConfig::endorse_base defaults to it.
inline constexpr SimTime kOrgEndorseBase = Us(180);
/// Per four contract arguments of a proposal, on top of kOrgEndorseBase
/// (charged as this × args / 4).
inline constexpr SimTime kOrgEndorsePerFourArgs = Us(30);
/// Per read-only proposal: contract execution, no endorsement.
inline constexpr SimTime kOrgRead = Us(60);
/// Per commit arrival: the duplicate check ahead of validation.
inline constexpr SimTime kOrgDedupCheck = Us(10);
/// Per transaction validated. OrgTimingConfig::commit_base defaults to it.
inline constexpr SimTime kOrgCommitBase = Us(60);
/// Per signature verified at commit: each endorsement and the client's.
inline constexpr SimTime kOrgVerifySig = Us(160);
// The CRDT cache applies and reads under one lock (paper §9's noted
// bottleneck), modelled as a single-server queue.
/// Per valid transaction applied, and per checkpoint install's merge.
inline constexpr SimTime kOrgCacheApplyBase = Us(20);
/// Per op applied, and per object a checkpoint install merges.
inline constexpr SimTime kOrgCacheApplyPerOp = Us(25);
/// Per read served through the cache lock.
inline constexpr SimTime kOrgCacheReadBase = Us(10);
/// Per object a read touches (at least one).
inline constexpr SimTime kOrgCacheReadPerObject = Us(10);

// Checkpoints (DESIGN.md §12–13): sealing runs behind the cache lock; the
// other checkpoint work runs on the cores.
/// Per seal: snapshot encode and signature.
inline constexpr SimTime kCkptSealBase = Us(200);
/// Per transaction id the seal covers.
inline constexpr SimTime kCkptSealPerTx = Us(2);
/// Per shipped checkpoint checked before install: seal and evidence.
inline constexpr SimTime kCkptInstallBase = Us(120);
/// Per object of a shipped checkpoint checked before install.
inline constexpr SimTime kCkptInstallPerObject = Us(25);
/// Per announced checkpoint checked against local state before attesting.
inline constexpr SimTime kCkptAttestVerifyBase = Us(150);
/// Per object of an announced checkpoint (dominance merge).
inline constexpr SimTime kCkptAttestVerifyPerObject = Us(20);
/// Per attestation signature checked, by a sealer or an installer.
inline constexpr SimTime kCkptAttestationCheck = Us(20);

// ---- Fabric and FabricCRDT peer (fabric/peer.cpp) ----------------------

/// Per proposal: contract execution and the endorsement signature.
inline constexpr SimTime kFabricEndorse = Us(250);
/// Per block validated and committed.
inline constexpr SimTime kFabricValidateBase = Us(80);
/// Per MVCC read-version check. The checks are lockless, so a block's
/// checks ceil-divide across kNodeCores.
inline constexpr SimTime kFabricReadCheck = Us(15);
/// Per write applied.
inline constexpr SimTime kFabricWrite = Us(40);
/// Per KiB of a FabricCRDT write set merged (charged as this ×
/// (wire size / 1024 + 1)): the paper's "objects gradually become large"
/// bottleneck.
inline constexpr SimTime kFabricCrdtMergePerKb = Us(160);
/// Per signature of a transaction in a block: each endorsement and the
/// creator's. 0 although Fabric's validation phase verifies every one
/// against the endorsement policy (the Hyperledger Fabric paper); this
/// model never verified them. OrderlessChain pays kOrgVerifySig for the
/// same check.
inline constexpr SimTime kFabricVerifySig = 0;

// ---- Solo orderer (fabric/orderer.cpp) ---------------------------------

/// Per transaction ordered, on the single ordering core.
inline constexpr SimTime kOrdererPerTx = Us(1000);
/// Per block: delay from cutting a block to broadcasting it.
inline constexpr SimTime kOrdererBlockCut = Ms(5);

// ---- BIDL and Sync HotStuff (ordered/) ---------------------------------

/// Per ordered transaction a replica executes, and per read it serves.
inline constexpr SimTime kExecPerTx = Us(100);
/// Per client signature of an executed transaction. 0 although BIDL's and
/// Sync HotStuff's replicas authenticate every client request; this model
/// never verified them.
inline constexpr SimTime kOrderedVerifyClientSig = 0;
/// Per vote of the quorum that decided an executed batch. 0 although both
/// protocols' replicas check the signed votes behind every decision; this
/// model never verified them.
inline constexpr SimTime kOrderedVerifyVote = 0;
/// Per transaction the BIDL sequencer numbers and multicasts.
inline constexpr SimTime kBidlSequencePerTx = Us(120);
/// Per transaction the Sync HotStuff leader admits to its mempool.
inline constexpr SimTime kHsLeaderPerTx = Us(60);
/// Most transactions the Sync HotStuff leader puts in one block.
inline constexpr std::size_t kHsMaxBlockTxs = 2000;

}  // namespace orderless::sim::cost

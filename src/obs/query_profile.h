#ifndef MDJOIN_OBS_QUERY_PROFILE_H_
#define MDJOIN_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mdjoin {

/// Per-operator execution record: one node of the EXPLAIN ANALYZE tree,
/// mirroring the plan tree. The generic fields (label, rows, timings) are
/// filled for every operator; the scan-counter, route and phase blocks are
/// populated only for (generalized / parallel) MD-join nodes, and the
/// storage block for every node that read a paged table.
struct OperatorProfile {
  std::string label;  // PlanNode::Label() of the operator
  int64_t output_rows = 0;
  double elapsed_ms = 0;  // wall clock, inclusive of children
  double self_ms = 0;     // exclusive: elapsed minus children
  double cpu_ms = 0;      // thread CPU time of the executing thread (self+children)
  /// Optimizer-estimated output cardinality, annotated by EXPLAIN ANALYZE
  /// from the cost model; -1 when no estimate was produced for this node.
  double est_rows = -1;

  // MD-join scan counters (Algorithm 3.1 work accounting).
  bool is_mdjoin = false;
  int64_t detail_rows_scanned = 0;
  int64_t detail_rows_qualified = 0;  // survived pushed-down θ selection
  int64_t candidate_pairs = 0;        // (b, t) pairs tested after index pruning
  int64_t matched_pairs = 0;          // pairs satisfying θ
  int64_t agg_updates = 0;            // aggregate-state updates applied
  int64_t passes = 0;                 // Theorem 4.1 passes over R
  int64_t blocks = 0;                 // vectorized blocks
  int64_t kernel_invocations = 0;     // columnar predicate kernel runs
  int64_t index_probe_lookups = 0;    // probes of multi-bucket (cube) indexes
  int64_t index_probe_memo_hits = 0;  // of those, answered by the code-key memo
  int64_t morsels = 0;                // detail morsels the workers claimed
  int64_t steal_waits = 0;            // drained cursor polls ending worker loops
  int num_threads = 1;                // workers that executed this node

  // How the MD-join found each detail tuple's relative set: "group_ids",
  // "index" or "nested_loop"; and, when the group-id map did not run, why
  // (the certificate's or the driver's reason; empty when it ran).
  std::string route;
  std::string route_reason;
  // Driver phases, wall ms: relative-set setup (binding, index build or map
  // charge), scan, worker merge, finalize. They sum to at most elapsed_ms.
  double setup_ms = 0;
  double scan_ms = 0;
  double merge_ms = 0;
  double finalize_ms = 0;

  // How an MD-join or a base generator read R: "in_place" (the catalog's
  // own table), "blocks" (a paged table, block by block) or "materialized"
  // (an executed plan); the selection on R folded into θ instead of
  // filtering R; and, when read as blocks, the columns decoded from each
  // block, in schema order. Empty for other operators.
  std::string read;
  std::string folded;
  std::vector<std::string> columns;

  // Storage counters: blocks an MD-join scan, a streaming base generator or
  // a paged TableRef's whole-file read served. In memory only blocks_pruned
  // counts: the kMorselRows-row morsels zone maps refuted.
  int64_t blocks_read = 0;            // storage blocks served (faults + hits)
  int64_t blocks_pruned = 0;          // morsels refuted by zone maps, never read
  int64_t blocks_faulted = 0;         // block loads that ran the decoder
  int64_t block_cache_hits = 0;       // blocks served resident from the cache
  int64_t spill_partitions = 0;       // partition pairs spilled and joined
  int64_t spill_bytes_written = 0;    // bytes written to spill files

  /// Fraction of scanned detail rows surviving the pushed-down selection;
  /// -1 when the node scanned nothing.
  double selectivity() const {
    return detail_rows_scanned > 0
               ? static_cast<double>(detail_rows_qualified) /
                     static_cast<double>(detail_rows_scanned)
               : -1.0;
  }

  /// Share of cube-index probes answered by a code-key memo hit instead of
  /// the per-bucket walk; -1 with no lookups.
  double probe_hit_rate() const {
    return index_probe_lookups > 0
               ? static_cast<double>(index_probe_memo_hits) /
                     static_cast<double>(index_probe_lookups)
               : -1.0;
  }

  /// Q-error of the cardinality estimate: max(est/act, act/est), both sides
  /// floored at one row, so always >= 1; -1 when no estimate was annotated.
  double qerror() const;

  std::vector<std::unique_ptr<OperatorProfile>> children;
};

/// One optimizer rewrite attempt recorded during OptimizePlan: the rule, the
/// node it targeted, whether the cost model accepted it, and the estimated
/// work before/after (the certificate that justified the decision).
struct RewriteRecord {
  std::string rule;    // e.g. "Theorem 4.2 selection pushdown"
  std::string node;    // label of the plan node the rule targeted
  bool accepted = false;
  double cost_before = 0;
  double cost_after = 0;
  std::string detail;  // acceptance certificate or rejection reason
};

/// The complete observability record of one query: the operator tree, the
/// optimizer's rewrite log, and a terminal event. A profile of a cancelled
/// or failed query is still well-formed — the tree holds partial counts for
/// whatever executed, and `terminal` carries the trip status (asserted by
/// guardrail_test.cc).
struct QueryProfile {
  std::unique_ptr<OperatorProfile> root;
  std::vector<RewriteRecord> rewrites;
  /// Static-analysis findings for the executed plan, one line each: θ
  /// bytecode verifier verdicts, derived range facts, unsat-θ proofs
  /// (analyze/plan_invariants.h StaticAnalysisReport). Empty when the plan
  /// has no MD-join or analysis was not run.
  std::vector<std::string> analysis;
  bool complete = false;   // execution reached the end successfully
  std::string terminal;    // "ok", or the error status string (terminal event)
  double total_ms = 0;     // wall clock of the whole execution
  /// Worst per-operator q-error in the tree; -1 when no node carries an
  /// estimate (plain EXPLAIN ANALYZE without estimation, failed estimates).
  double max_qerror = -1;

  /// Indented tree, one line per operator:
  ///   MdJoin(...)  rows=1000 total=12.3ms self=11.1ms scanned=1M sel=42.0% ...
  /// followed by the rewrite log and the terminal line.
  std::string ToText() const;

  /// Machine-readable rendering: {"terminal": ..., "rewrites": [...],
  /// "plan": {recursive operator objects}}.
  std::string ToJson() const;
};

}  // namespace mdjoin

#endif  // MDJOIN_OBS_QUERY_PROFILE_H_

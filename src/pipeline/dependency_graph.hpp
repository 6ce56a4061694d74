// Dependency edges between compiled artifacts.
//
// The IR has no call instruction — functions compile independently — so
// cross-function coupling enters the module as `ir::ModuleReference`
// edges (symbol references in .tir text, workload-declared call
// references). This file turns those edges into the persistent structure
// ROADMAP item 2b asks for, modeled on redream's jit_edge/jit_block_meta
// graph: every compiled function becomes a node carrying its
// ir::fingerprint plus a *closure digest* — a hash over the fingerprints
// of everything it transitively depends on. An edited function changes
// its own fingerprint, which changes the closure digest of every
// transitive dependent; the driver mixes closure digests into cache keys,
// so invalidation is enforced by key change (correct even when the cached
// graph is lost) while the graph diff explains *why* each function
// recompiled.
//
// The graph is stored beside ResultCache entries as a TADFADG1 record
// (see ResultCache::insert_graph), rewritten atomically by an edit-aware
// compile whose read was not a clean hit or whose graph changed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/function.hpp"
#include "support/serialize.hpp"

namespace tadfa::pipeline {

/// One compiled function in the dependency graph.
struct DependencyNode {
  std::string name;
  /// ir::fingerprint of the function at record time.
  std::uint64_t fingerprint = 0;
  /// Hash over the sorted (name, fingerprint) pairs of the full
  /// transitive dependency set, self included. Cycles are fine: the
  /// digest is over the reachable *set*, not a traversal order.
  std::uint64_t closure_digest = 0;
  /// Names this function directly depends on (sorted, unique).
  std::vector<std::string> deps;

  friend bool operator==(const DependencyNode&,
                         const DependencyNode&) = default;
};

/// Why the edit-aware driver decided to recompile (or not) a function.
enum class InvalidationReason : std::uint8_t {
  kUnknown = 0,        ///< Not compiled in edit-aware mode.
  kWarm = 1,           ///< Fingerprint and closure match the cached graph.
  kNew = 2,            ///< No cached graph node with this name.
  kEdited = 3,         ///< The function's own fingerprint changed.
  kDependent = 4,      ///< Unchanged itself; a transitive dependency changed.
  kGraphDegraded = 5,  ///< Cached graph unreadable; whole module recompiled.
};
constexpr std::uint8_t kMaxInvalidationReason =
    static_cast<std::uint8_t>(InvalidationReason::kGraphDegraded);

/// Short stable label ("warm", "edited", ...) for logs, --explain output
/// and the wire protocol's human-readable side.
const char* to_string(InvalidationReason reason);

/// One per-function verdict from diff_graphs.
struct InvalidationDecision {
  InvalidationReason reason = InvalidationReason::kUnknown;
  /// For kDependent: the dependency path walked from this function to
  /// the nearest changed one, "a -> b -> c" (c changed). Empty when the
  /// dependency *set* changed without any function body changing.
  std::string via;
};

/// The persistent edge structure for one module. Nodes are kept sorted
/// by name, so building the same module twice is byte-identical.
class DependencyGraph {
 public:
  /// Records every function of `module` plus its reference edges.
  /// Edges naming functions absent from the module are kept (the
  /// verifier flags them; here they just hash as fingerprint 0).
  static DependencyGraph build(const ir::Module& module);

  const std::vector<DependencyNode>& nodes() const { return nodes_; }
  /// Binary search by name; nullptr when absent.
  const DependencyNode* node(std::string_view name) const;

  /// Names whose closure includes `name` (its transitive dependents),
  /// excluding `name` itself; sorted.
  std::vector<std::string> dependents_of(std::string_view name) const;

  /// Digest over the node *names* only — identifies the module slot a
  /// graph record lives in, stable across edits to function bodies.
  std::uint64_t names_digest() const;

  void serialize(ByteWriter& w) const;
  /// nullopt on truncation, implausible counts, or unsorted nodes.
  static std::optional<DependencyGraph> deserialize(ByteReader& r);

  friend bool operator==(const DependencyGraph&,
                         const DependencyGraph&) = default;

 private:
  std::vector<DependencyNode> nodes_;  // sorted by name
};

/// Diffs `now` (the resubmitted module) against `before` (the cached
/// graph). Returns one decision per node of `now`, in node order.
std::vector<InvalidationDecision> diff_graphs(const DependencyGraph& before,
                                              const DependencyGraph& now);

}  // namespace tadfa::pipeline

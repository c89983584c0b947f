// Package canon computes a canonical form and structural fingerprint of a
// logic.Network.
//
// Two networks receive the same fingerprint exactly when they are
// structurally identical up to node numbering: the canonicalization
// relabels nodes by a deterministic topological order whose ties are
// broken by a per-node structural signature (operation, name, canonical
// fanin labels), so any insertion order that builds the same graph hashes
// to the same value. Everything the mapper is sensitive to is preserved:
// fanin order (series-stack order follows operand order), sharing versus
// duplication (fanout decides forced gate roots), node names (they become
// gate output names), input declaration order and output bindings.
// Indistinguishable twin nodes — identical op, name and fanins — keep
// their relative source order, which is the one tie the signature cannot
// break.
//
// No service path calls this package any more: the mapping service's
// cache and routing key is strash's own structural digest
// (strash.Result.Key, see DESIGN.md §13), which also keeps primary-output
// order — Canonicalize sorts outputs by name, so two submissions that
// differ only in output order share a fingerprint. The package is kept
// only for the benchmark's canon.hash_ms replay layer (perfbench), and
// goes with that layer in the next change to the benchmark.
package canon

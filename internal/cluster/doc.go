// Package cluster turns a set of soimapd replicas into one logical
// mapping service: a routing front-end (Router) consistent-hash-routes
// each submission by its request key — the strash structural network
// digest keyed jointly with the options encoding, the exact key
// replicas cache results under — so identical circuits land on the same
// replicas regardless of how the request was spelled.
//
// Two layers cooperate:
//
//   - Ring: a consistent-hash ring with virtual nodes. Prefer(key, n)
//     yields the replicas responsible for a key in failover order;
//     adding or removing a replica reshuffles only the keys it owned.
//
//   - Router: the HTTP front-end. POST /v1/map reads the whole body
//     (service.ReadRequest) and looks its sha256 up in a bounded memo of
//     routing keys (a cache.LRU). On a miss it decodes the body with
//     the replicas' own decoder (service.ParseRequest; soimapd reads
//     and decodes every submission the same way) and computes the key
//     with service.RequestKey (an inline BLIF source is keyed from its
//     text, with no network built), memoising it on success; a byte-identical
//     resubmission is neither decoded nor keyed again. It routes to
//     the ReplicationFactor preferred replicas with failover (then to
//     the remaining replicas as a last resort), forwarding the caller's
//     body bytes and the key in service.KeyHeader so a replica hit
//     neither parses nor strashes.
//     It relays the replica's answer bytes, namespacing the job id as
//     "<replica>.<id>" (service.RelayView) so GET /v1/jobs/{id} polls
//     the replica that owns the job. A background prober watches each replica's /readyz — a
//     draining replica drops out of rotation before its listener closes
//     — and transport failures mark a replica unready passively between
//     probes.
//
// The router does not coalesce. Identical submissions share a key, so
// the ring sends them to one replica, whose job table runs the key once
// and gives every caller its own job id and a copy of the result.
//
// The consistency contract making all of this safe is documented in
// DESIGN.md §12: mapping is deterministic and results are byte-identical
// across replicas and worker counts, so any replica — or any cached or
// coalesced copy — may answer any request.
package cluster

package chaostest

import (
	"context"
	"testing"
)

// TestClusterCampaignSurvivesKillRestart is the in-tree multi-node chaos
// smoke: router + replicas in process, one replica killed a third of the
// way in and restarted at two thirds. Every completed response must
// byte-match a clean local re-derivation — through failover, the shared
// cache tier and the replicas' coalescing — with zero non-injected
// failures.
func TestClusterCampaignSurvivesKillRestart(t *testing.T) {
	rep, err := RunCluster(context.Background(), ClusterConfig{
		Seed:      11,
		Requests:  60,
		SimCycles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Kills != 1 || rep.Restarts != 1 {
		t.Errorf("kills=%d restarts=%d, want 1 and 1", rep.Kills, rep.Restarts)
	}
	if rep.Done == 0 {
		t.Error("campaign completed zero jobs — nothing was verified")
	}
	if rep.PeerHits == 0 {
		t.Error("the shared cache tier never engaged: the restarted replica should have answered outage-period sweep repeats from a sibling's cache")
	}
	if rep.WarmHits == 0 || rep.Recovered == 0 {
		t.Errorf("warm-hits=%d recovered=%d: the victim restarted over its state dir and must come back warm from its journal and durable store",
			rep.WarmHits, rep.Recovered)
	}
	if rep.Done+rep.FailedInjected+rep.Rejected != rep.Requests {
		t.Errorf("outcomes %d+%d+%d do not account for %d requests",
			rep.Done, rep.FailedInjected, rep.Rejected, rep.Requests)
	}
}

// TestClusterCampaignCoalesces: with point faults disabled (probability
// effectively zero cannot be expressed — zero selects the default — so
// a vanishingly small one) and a burst-heavy stream, the replicas'
// in-flight tables must observably collapse identical submissions.
func TestClusterCampaignCoalesces(t *testing.T) {
	rep, err := RunCluster(context.Background(), ClusterConfig{
		Seed:      5,
		Requests:  80,
		FaultProb: 1e-9,
		SimCycles: -1, // oracles are covered by the kill/restart campaign
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Coalesced == 0 {
		t.Error("no submissions coalesced despite identical-submission bursts")
	}
}

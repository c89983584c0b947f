package chaostest

import (
	"context"
	"testing"
	"time"
)

// TestCampaignFindsNoCorruption is the in-tree chaos smoke: a short
// seeded campaign must fire faults, complete some jobs, and find zero
// silent corruptions.
func TestCampaignFindsNoCorruption(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Campaign:  Single,
		Seed:      1,
		Requests:  30,
		SimCycles: 2,
		FaultProb: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Done == 0 {
		t.Error("campaign completed zero jobs — nothing was verified")
	}
	if totalFired(rep.FaultsFired) == 0 {
		t.Error("campaign fired zero faults — nothing was disturbed")
	}
	if rep.Done+rep.FailedInjected+rep.Rejected != rep.Requests {
		t.Errorf("outcomes %d+%d+%d do not account for %d requests",
			rep.Done, rep.FailedInjected, rep.Rejected, rep.Requests)
	}
}

// TestCampaignReplayable: with one worker and a fixed seed the whole
// campaign — fault schedule, request stream, firing decisions — is
// deterministic, so two runs agree outcome for outcome. This is what
// makes a chaos finding debuggable from its seed alone.
func TestCampaignReplayable(t *testing.T) {
	run := func() *Report {
		rep, err := Run(context.Background(), Config{
			Campaign:  Single,
			Seed:      7,
			Requests:  20,
			Workers:   1,
			SimCycles: 1,
			FaultProb: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Done != b.Done || a.FailedInjected != b.FailedInjected || a.Rejected != b.Rejected {
		t.Errorf("replay diverged: %s vs %s", a, b)
	}
	for name, n := range a.FaultsFired {
		if b.FaultsFired[name] != n {
			t.Errorf("point %s fired %d then %d", name, n, b.FaultsFired[name])
		}
	}
}

// TestCampaignHonorsDeadline: the wall-clock bound stops every preset's
// request loop without failing the campaign, and every preset reports
// its fault census. FaultProb is raised above the Cluster default (0.02)
// so a census over a few dozen requests cannot come back empty by chance.
func TestCampaignHonorsDeadline(t *testing.T) {
	for _, campaign := range []Campaign{Single, Cluster, Persist} {
		t.Run(string(campaign), func(t *testing.T) {
			rep, err := Run(context.Background(), Config{
				Campaign:  campaign,
				Seed:      3,
				Requests:  100000,
				Deadline:  300 * time.Millisecond,
				FaultProb: 0.2,
				SimCycles: -1, // pure throughput; oracles are covered above
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep)
			if rep.Requests >= 100000 {
				t.Errorf("deadline did not bound the campaign (%d requests)", rep.Requests)
			}
			if totalFired(rep.FaultsFired) == 0 {
				t.Errorf("empty fault census %v", rep.FaultsFired)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

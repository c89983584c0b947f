package faultpoint

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if err := r.Check(context.Background(), "any"); err != nil {
		t.Fatalf("nil registry Check = %v, want nil", err)
	}
	if r.Flip("any") {
		t.Fatal("nil registry Flip = true")
	}
	if r.Fired() != nil {
		t.Fatal("nil registry reports firings")
	}
	if ctx := With(context.Background(), nil); From(ctx) != nil {
		t.Fatal("With(nil) attached a registry")
	}
}

func TestErrorFault(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Kind: Error, Prob: 1})
	err := r.Check(context.Background(), "p")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "faultpoint p") {
		t.Errorf("error %q does not name the point", err)
	}
	if err := r.Check(context.Background(), "unarmed"); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
	custom := errors.New("boom")
	r.Arm("q", Fault{Kind: Error, Prob: 1, Err: custom})
	if err := r.Check(context.Background(), "q"); !errors.Is(err, custom) {
		t.Errorf("custom error not wrapped: %v", err)
	}
}

func TestTimesCapAndCounts(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Kind: Error, Prob: 1, Times: 2})
	fired := 0
	for i := 0; i < 5; i++ {
		if r.Check(context.Background(), "p") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (Times cap)", fired)
	}
	if got := r.Fired()["p"]; got != 2 {
		t.Errorf("Fired[p] = %d, want 2", got)
	}
}

func TestPanicFault(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Kind: Panic, Prob: 1})
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(rec.(string), "faultpoint p") {
			t.Errorf("panic %v does not name the point", rec)
		}
	}()
	r.Check(context.Background(), "p")
}

func TestLatencyFault(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Kind: Latency, Prob: 1, Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := r.Check(context.Background(), "p"); err != nil {
		t.Fatalf("latency fault returned error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("latency fault slept %v, want >= 20ms", d)
	}
	// An expired context aborts the sleep with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Arm("q", Fault{Kind: Latency, Prob: 1, Latency: 10 * time.Second})
	if err := r.Check(ctx, "q"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled latency fault = %v, want context.Canceled", err)
	}
}

func TestCancelFault(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Kind: Cancel, Prob: 1})
	ctx, cancel := WithCancel(With(context.Background(), r))
	defer cancel()
	err := From(ctx).Check(ctx, "p")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel fault = %v, want context.Canceled", err)
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("cancel fault did not cancel the context")
	}
}

func TestFlipIsolation(t *testing.T) {
	r := New(1)
	r.Arm("flip", Fault{Kind: Flip, Prob: 1})
	r.Arm("err", Fault{Kind: Error, Prob: 1})
	// A Flip fault never fires through Check, and a non-Flip fault never
	// fires through Flip: arming a point with the wrong kind cannot
	// silently alter behaviour.
	if err := r.Check(context.Background(), "flip"); err != nil {
		t.Errorf("Check fired a Flip fault: %v", err)
	}
	if !r.Flip("flip") {
		t.Error("Flip did not fire a Flip fault")
	}
	if r.Flip("err") {
		t.Error("Flip fired an Error fault")
	}
}

// TestSeededDeterminism pins the replayability contract: the same seed
// and the same call sequence roll the same firing decisions.
func TestSeededDeterminism(t *testing.T) {
	run := func() []bool {
		r := New(42)
		r.Arm("p", Fault{Kind: Error, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Check(context.Background(), "p") != nil
		}
		return out
	}
	a, b := run(), run()
	some := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical seeds", i)
		}
		some = some || a[i]
	}
	if !some {
		t.Error("prob 0.5 never fired in 64 rolls")
	}
}

func TestDefineAndPoints(t *testing.T) {
	name := Define("test.point", "a test point")
	if name != "test.point" {
		t.Fatalf("Define returned %q", name)
	}
	found := false
	for _, p := range Points() {
		if p.Name == "test.point" && p.Doc == "a test point" {
			found = true
		}
	}
	if !found {
		t.Error("defined point missing from Points()")
	}
	names := Points()
	for i := 1; i < len(names); i++ {
		if names[i-1].Name >= names[i].Name {
			t.Fatalf("Points not sorted: %q >= %q", names[i-1].Name, names[i].Name)
		}
	}
}

package service

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAddNamesAreDeclared: every metrics.add call in the package names,
// as a string literal, a counter declared in counterNames. The counter
// map is fixed at construction, so an undeclared name cannot invent a
// counter — it would panic at run time instead.
func TestAddNamesAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, name := range counterNames {
		declared[name] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "add" {
				return true
			}
			calls++
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: add takes a non-literal counter name", fset.Position(call.Pos()))
				return true
			}
			if name, _ := strconv.Unquote(lit.Value); !declared[name] {
				t.Errorf("%s: add(%s) is not in counterNames", fset.Position(call.Pos()), lit.Value)
			}
			return true
		})
	}
	if calls < len(counterNames) {
		t.Errorf("found %d add calls, fewer than the %d declared counters", calls, len(counterNames))
	}
}

// TestEWMAFirstSampleSeeds: the first recorded duration becomes the
// average verbatim — no warm-up bias from smoothing against the zero
// "no data yet" state, which doubles as the shedder's off switch.
func TestEWMAFirstSampleSeeds(t *testing.T) {
	m := newMetrics()
	if got := m.avgJobDuration(); got != 0 {
		t.Fatalf("fresh metrics avg = %v, want 0 (shedder disabled)", got)
	}
	m.recordDuration(100 * time.Millisecond)
	if got := m.avgJobDuration(); got != 100*time.Millisecond {
		t.Errorf("after first sample avg = %v, want exactly 100ms", got)
	}
}

// TestEWMASmoothing: subsequent samples fold in with alpha = 1/4:
// avg' = avg + (sample-avg)/4.
func TestEWMASmoothing(t *testing.T) {
	m := newMetrics()
	m.recordDuration(100 * time.Millisecond)
	m.recordDuration(200 * time.Millisecond)
	if got := m.avgJobDuration(); got != 125*time.Millisecond {
		t.Errorf("avg after 100ms,200ms = %v, want 125ms", got)
	}
	m.recordDuration(125 * time.Millisecond)
	if got := m.avgJobDuration(); got != 125*time.Millisecond {
		t.Errorf("a sample equal to the average moved it: %v", got)
	}
	// A slow outlier moves the estimate by only a quarter of its excess.
	m.recordDuration(1125 * time.Millisecond)
	if got := m.avgJobDuration(); got != 375*time.Millisecond {
		t.Errorf("avg after 1125ms outlier = %v, want 375ms", got)
	}
}

// TestEWMAStaleReadTolerance exercises the documented benign race: the
// load/store pair in recordDuration is not atomic read-modify-write, so
// concurrent workers may smooth against a stale average. The tolerance
// contract is that the estimate stays a plausible smoothing — within
// the range of the recorded samples — never garbage. With a constant
// sample the fixed point is exact under any interleaving. Run under
// -race by `make race`.
func TestEWMAStaleReadTolerance(t *testing.T) {
	m := newMetrics()
	const sample = 50 * time.Millisecond
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.recordDuration(sample)
			}
		}()
	}
	wg.Wait()
	if got := m.avgJobDuration(); got != sample {
		t.Errorf("constant %v samples converged to %v; stale reads must only perturb smoothing, not the fixed point", sample, got)
	}

	// Mixed samples: the estimate must land inside the sample range.
	m2 := newMetrics()
	lo, hi := 10*time.Millisecond, 90*time.Millisecond
	for w := 0; w < 8; w++ {
		wg.Add(1)
		d := lo
		if w%2 == 1 {
			d = hi
		}
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m2.recordDuration(d)
			}
		}()
	}
	wg.Wait()
	if got := m2.avgJobDuration(); got < lo || got > hi {
		t.Errorf("avg %v escaped the sample range [%v, %v]", got, lo, hi)
	}
}

// TestShedDecisionAtDeadlineBoundary pins the shed/no-shed decision
// against the estimated queue wait (queued × avg / workers): a deadline
// comfortably beyond the estimate is accepted, one short of it is shed
// with 429 + Retry-After. Uses one blocked worker and one queued job so
// the estimated wait is exactly the seeded average.
func TestShedDecisionAtDeadlineBoundary(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	inner := s.mapFn
	s.mapFn = blockUntil(release, inner)
	defer close(release)

	// Seed the estimate directly: avg 2s per job.
	s.metrics.avgJobNanos.Store(int64(2 * time.Second))

	// Occupy the worker, then park one job in the queue (wait ≈ 2s).
	if code, _ := postMap(t, ts, `{"circuit": "mux", "async": true, "options": {"clock_weight": 1}}`); code != http.StatusAccepted {
		t.Fatal("job 1 not accepted")
	}
	waitFor(t, s, "jobs_running", 1)
	if code, _ := postMap(t, ts, `{"circuit": "mux", "async": true, "options": {"clock_weight": 2}}`); code != http.StatusAccepted {
		t.Fatal("job 2 not accepted")
	}
	waitFor(t, s, "jobs_queued", 1)

	// 30s deadline against a ~2s estimated wait: accepted.
	if code, _ := postMap(t, ts, `{"circuit": "mux", "async": true, "timeout_ms": 30000, "options": {"clock_weight": 3}}`); code != http.StatusAccepted {
		t.Error("job with deadline far beyond the estimated wait was shed")
	}
	// 500ms deadline against the same wait: shed before queueing.
	resp, _ := postMapResp(t, ts, `{"circuit": "mux", "async": true, "timeout_ms": 500, "options": {"clock_weight": 4}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("doomed job: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if n := s.Counter("jobs_shed"); n != 1 {
		t.Errorf("jobs_shed = %d, want 1", n)
	}
	// Shedding never triggers before the first sample: a fresh estimate
	// of zero disables it even for tiny deadlines (covered above by the
	// fresh-metrics zero check; here the already-expired path).
	resp2, _ := postMapResp(t, ts, `{"circuit": "mux", "async": true, "timeout_ms": -1, "options": {"clock_weight": 5}}`)
	if resp2.StatusCode == http.StatusTooManyRequests {
		t.Error("already-expired deadline was shed; it must reach the DP's cancellation path")
	}
}

// blockUntil wraps a mapFn so jobs block until release closes (or their
// context dies), letting tests hold the queue in a known state.
func blockUntil(release chan struct{}, inner mapFunc) mapFunc {
	return func(ctx context.Context, j *job) (*MapResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, j)
	}
}

// waitFor polls the server until the named gauge reaches want.
func waitFor(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counter(name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d", name, want)
		}
		time.Sleep(time.Millisecond)
	}
}

package mapper

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/obs"
	"soidomino/internal/unate"
)

// unateBench builds a benchmark circuit and runs it through the standard
// decompose+unate pipeline, returning the mappable network.
func unateBench(t *testing.T, name string) *logic.Network {
	t.Helper()
	d, err := unate.Decompose(bench.MustBuild(name))
	if err != nil {
		t.Fatalf("%s: decompose: %v", name, err)
	}
	u, err := d.Convert()
	if err != nil {
		t.Fatalf("%s: unate: %v", name, err)
	}
	return u.Network
}

// TestConcurrentMappingMatchesSerial maps several circuits from parallel
// goroutines — each circuit many times, all sharing one network value —
// and requires every result to be byte-identical to the serial run. This
// guards the property the service's worker pool depends on: mapping runs
// share no mutable state, neither across goroutines nor through the input
// network. Run it under -race (scripts/check.sh does).
func TestConcurrentMappingMatchesSerial(t *testing.T) {
	circuits := []string{"mux", "z4ml", "cordic", "c8", "b9"}
	opt := DefaultOptions()

	nets := make(map[string]*logic.Network, len(circuits))
	want := make(map[string]string, len(circuits))
	for _, name := range circuits {
		nets[name] = unateBench(t, name)
		res, err := SOIDominoMap(nets[name], opt)
		if err != nil {
			t.Fatalf("%s: serial map: %v", name, err)
		}
		want[name] = res.Dump()
	}

	const repeats = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(circuits)*repeats)
	for _, name := range circuits {
		for r := 0; r < repeats; r++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				res, err := SOIDominoMap(nets[name], opt)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Dump(); got != want[name] {
					t.Errorf("%s: concurrent result differs from serial run", name)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent map: %v", err)
	}
}

// TestConcurrentPooledRunsMatchSerial runs a mixed stream of Pareto and
// single-tuple mappings, under every algorithm and two shape bounds,
// from several goroutines at once, so pooled workspaces pass between
// runs of different shapes, modes and networks while other runs hold
// theirs. Every result and its DP counters must equal the serial run's.
// Run it under -race (make race does).
func TestConcurrentPooledRunsMatchSerial(t *testing.T) {
	type job struct {
		circuit, algo string
		opt           Options
	}
	var jobs []job
	for _, name := range []string{"mux", "z4ml", "cordic", "c8", "b9"} {
		for _, algo := range []string{"domino", "rs", "soi"} {
			for v := 0; v < 4; v++ {
				opt := DefaultOptions()
				opt.Pareto = v%2 == 1
				if v >= 2 {
					opt.MaxWidth, opt.MaxHeight = 3, 4
				}
				jobs = append(jobs, job{name, algo, opt})
			}
		}
	}
	nets := map[string]*logic.Network{}
	run := func(j job) (string, obs.Stats, error) {
		var st obs.Stats
		res, err := mapAlgo(obs.WithStats(context.Background(), &st), j.algo, nets[j.circuit], j.opt)
		if err != nil {
			return "", st, err
		}
		st.Phases = obs.PhaseTimes{}
		return res.Dump(), st, nil
	}
	want := make([]string, len(jobs))
	wantStats := make([]obs.Stats, len(jobs))
	for i, j := range jobs {
		if nets[j.circuit] == nil {
			nets[j.circuit] = unateBench(t, j.circuit)
		}
		var err error
		if want[i], wantStats[i], err = run(j); err != nil {
			t.Fatalf("%s %s: serial map: %v", j.circuit, j.algo, err)
		}
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(jobs)) {
				j := jobs[i]
				got, st, err := run(j)
				switch {
				case err != nil:
					t.Errorf("%s %s: concurrent map: %v", j.circuit, j.algo, err)
				case got != want[i]:
					t.Errorf("%s %s pareto=%v %dx%d: concurrent result differs from serial run",
						j.circuit, j.algo, j.opt.Pareto, j.opt.MaxWidth, j.opt.MaxHeight)
				case st != wantStats[i]:
					t.Errorf("%s %s pareto=%v %dx%d: counters %+v, serial %+v",
						j.circuit, j.algo, j.opt.Pareto, j.opt.MaxWidth, j.opt.MaxHeight, st, wantStats[i])
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// mapAlgo dispatches to one of the public mappers by name.
func mapAlgo(ctx context.Context, algo string, n *logic.Network, opt Options) (*Result, error) {
	switch algo {
	case "domino":
		return DominoMapContext(ctx, n, opt)
	case "rs":
		return RSMapContext(ctx, n, opt)
	case "rsdeep":
		return RSMapDeepContext(ctx, n, opt)
	default:
		return SOIDominoMapContext(ctx, n, opt)
	}
}

// TestContextCancellationAbortsDP: a context canceled before the run
// starts aborts every mapper in both Pareto modes at the first node
// checkpoint, with no result and context.Canceled.
func TestContextCancellationAbortsDP(t *testing.T) {
	n := unateBench(t, "c880")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []string{"domino", "rs", "rsdeep", "soi"} {
		for _, pareto := range []bool{false, true} {
			opt := DefaultOptions()
			opt.Pareto = pareto
			res, err := mapAlgo(ctx, algo, n, opt)
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s pareto=%v: got (%v, %v), want nil result and context.Canceled", algo, pareto, res, err)
			}
			if !strings.Contains(err.Error(), "canceled at node 0 of") {
				t.Errorf("%s pareto=%v: %v, want the node-0 checkpoint", algo, pareto, err)
			}
		}
	}
}

// TestParallelCancellation: callers mapping at the same time with a
// pre-canceled context each get no result and context.Canceled. The
// deprecated Workers field is set to show it does not change that.
func TestParallelCancellation(t *testing.T) {
	n := unateBench(t, "c880")
	opt := DefaultOptions()
	opt.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const callers = 4
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := SOIDominoMapContext(ctx, n, opt)
			if res != nil {
				err = errors.New("non-nil result")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller %d: got %v, want nil result and context.Canceled", i, err)
		}
	}
}

func TestContextExpiredDeadlineAbortsDP(t *testing.T) {
	n := unateBench(t, "c880")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := DominoMapContext(ctx, n, DefaultOptions())
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got (%v, %v), want nil result and context.DeadlineExceeded", res, err)
	}
}

func TestContextBackgroundMatchesPlainAPI(t *testing.T) {
	n := unateBench(t, "mux")
	plain, err := SOIDominoMap(n, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := SOIDominoMapContext(context.Background(), n, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Dump() != withCtx.Dump() {
		t.Error("context variant diverges from plain API")
	}
}

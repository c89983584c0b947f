// Package faultpoint is the named, seeded fault-injection registry of
// the resilience layer. Production code paths declare *fault points* —
// stable names like "mapper.combine" or "service.queue-pop" — and call
// Check at those points; a test or chaos campaign arms a Registry with
// per-point faults (an error return, a panic, injected latency, a
// context cancellation, or a behaviour flip) and threads it through the
// context of the work it wants to disturb.
//
// The registry rides on the context, never on mapper.Options or any
// other value that shapes a result's cache key: two requests that
// differ only in their fault schedule must still share a cache entry,
// exactly like the observability collectors in internal/obs. A nil
// *Registry (the production default) is inert: every method is
// nil-receiver-safe and the disabled path is a single pointer check.
//
// Faults fire probabilistically from a seeded PRNG, so a chaos campaign
// is replayable: the same seed arms the same schedule and rolls the
// same decisions in the same registry-call order.
package faultpoint

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Kind is the behaviour of an armed fault when its point fires.
type Kind uint8

const (
	// Error makes Check return an injected error.
	Error Kind = iota
	// Panic makes Check panic, exercising panic-isolation paths.
	Panic
	// Latency makes Check sleep for Fault.Latency (or until the context
	// is done) before returning nil.
	Latency
	// Cancel cancels the context's registered cancel function (see
	// WithCancel) and returns a context.Canceled error.
	Cancel
	// Flip fires only through the Flip method: it answers "invert this
	// decision?" at behaviour-flip points such as the SOI stack-reorder
	// rule (mapper.PointInvertReorder).
	Flip
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Latency:
		return "latency"
	case Cancel:
		return "cancel"
	case Flip:
		return "flip"
	}
	return fmt.Sprintf("Kind(%d)", k)
}

// ErrInjected is the sentinel wrapped by every Error-kind fault, so
// callers and tests can tell injected failures from organic ones.
var ErrInjected = errors.New("injected fault")

// Fault arms one point. The zero Prob never fires.
type Fault struct {
	Kind Kind
	// Prob is the firing probability in [0,1] per registry call.
	Prob float64
	// Times caps the number of firings; 0 means unlimited.
	Times int64
	// Latency is the injected delay of a Latency fault.
	Latency time.Duration
	// Err overrides the returned error of an Error fault; nil wraps
	// ErrInjected.
	Err error
}

type armed struct {
	Fault
	fired int64
}

// Registry holds the armed faults of one campaign. Create with New;
// methods are safe for concurrent use and for a nil receiver.
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	armed map[string]*armed
}

// New returns an empty registry whose firing decisions derive from seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewSource(seed)),
		armed: make(map[string]*armed),
	}
}

// Arm installs (or replaces) the fault at a named point.
func (r *Registry) Arm(name string, f Fault) {
	r.mu.Lock()
	r.armed[name] = &armed{Fault: f}
	r.mu.Unlock()
}

// Fired returns the per-point firing counts of every armed point.
func (r *Registry) Fired() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.armed))
	for name, a := range r.armed {
		out[name] = a.fired
	}
	return out
}

// roll decides whether the point's armed fault fires now. flip selects
// the channel: Flip-kind faults fire only through Flip, every other
// kind only through Check. A kind/channel mismatch neither fires nor
// counts, so the Fired census reports faults that actually took effect.
func (r *Registry) roll(name string, flip bool) (Fault, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.armed[name]
	if !ok || a.Prob <= 0 || (a.Kind == Flip) != flip || (a.Times > 0 && a.fired >= a.Times) {
		return Fault{}, false
	}
	if r.rng.Float64() >= a.Prob {
		return Fault{}, false
	}
	a.fired++
	return a.Fault, true
}

// Check fires the fault armed at a named point, if any. It returns nil
// when the registry is nil, the point is unarmed, or the roll misses.
// Error faults return a wrapped ErrInjected; Panic faults panic;
// Latency faults sleep and return nil (or the context error if ctx
// expires first); Cancel faults cancel the context's WithCancel handle
// and return a wrapped context.Canceled. Flip faults never fire here.
func (r *Registry) Check(ctx context.Context, name string) error {
	if r == nil {
		return nil
	}
	f, ok := r.roll(name, false)
	if !ok {
		return nil
	}
	switch f.Kind {
	case Panic:
		panic(fmt.Sprintf("faultpoint %s: injected panic", name))
	case Latency:
		t := time.NewTimer(f.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("faultpoint %s: %w", name, ctx.Err())
		}
	case Cancel:
		if cancel := cancelFrom(ctx); cancel != nil {
			cancel()
		}
		return fmt.Errorf("faultpoint %s: %w", name, context.Canceled)
	default: // Error
		err := f.Err
		if err == nil {
			err = ErrInjected
		}
		return fmt.Errorf("faultpoint %s: %w", name, err)
	}
}

// Flip reports whether a Flip-kind fault at the point fires: behaviour
// flips are opt-in per call site, separate from Check, so arming a
// point with any other kind can never silently alter results.
func (r *Registry) Flip(name string) bool {
	if r == nil {
		return false
	}
	_, ok := r.roll(name, true)
	return ok
}

type ctxKey uint8

const (
	registryKey ctxKey = iota
	cancelKey
)

// With attaches the registry to the context. A nil registry returns ctx
// unchanged.
func With(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey, r)
}

// From returns the context's registry, or nil (the inert default).
func From(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryKey).(*Registry)
	return r
}

// WithCancel derives a cancelable context and registers its cancel
// function where Cancel-kind faults can reach it, so an injected
// cancellation propagates through the same context plumbing a real
// deadline or shutdown would use. The returned cancel must be called to
// release the derived context.
func WithCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	return context.WithValue(ctx, cancelKey, cancel), cancel
}

func cancelFrom(ctx context.Context) context.CancelFunc {
	c, _ := ctx.Value(cancelKey).(context.CancelFunc)
	return c
}

// Point is one declared fault point.
type Point struct {
	Name string
	Doc  string
}

var (
	defMu   sync.Mutex
	defined = make(map[string]string)
)

// Define declares a named fault point and returns the name, so
// instrumented packages can register their points in var blocks:
//
//	var PointParse = faultpoint.Define("blif.parse", "start of a BLIF parse")
//
// Redefining a name overwrites its doc; the catalog is for discovery
// (chaos campaigns arm every defined point), not enforcement.
func Define(name, doc string) string {
	defMu.Lock()
	defined[name] = doc
	defMu.Unlock()
	return name
}

// Points lists every defined fault point, sorted by name.
func Points() []Point {
	defMu.Lock()
	defer defMu.Unlock()
	out := make([]Point, 0, len(defined))
	for name, doc := range defined {
		out = append(out, Point{Name: name, Doc: doc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

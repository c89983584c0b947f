package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// runRemote posts req to the soimapd (or soirouter) at baseURL through
// the retrying client: transient failures (connection refused during a
// rolling restart, 429 under load) are retried with jittered backoff
// before soimap gives up. The daemon returns the MapResult encoding
// only, so the local-only flags are refused before this is reached.
// explain fetches the daemon's attribution record; a non-empty
// tracePath starts a sampled distributed trace and writes the stitched
// Perfetto JSON the server assembled.
func runRemote(baseURL string, req *service.MapRequest, jsonOut, explain bool, tracePath string) error {
	// Ctrl-C aborts the submission and the poll loop promptly instead of
	// leaving soimap asleep between polls.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// -trace mints a sampled trace context; the client propagates it as a
	// traceparent header, so the server records spans under our trace id.
	var tc obs.TraceContext
	if tracePath != "" {
		tc = obs.NewTraceContext()
		ctx = obs.WithTraceContext(ctx, tc)
	}

	c := client.New(client.Config{BaseURL: baseURL})
	v, err := c.Map(ctx, req)
	if err != nil {
		return err
	}
	// A synchronous submission can still come back non-terminal when the
	// HTTP round trip outlives the handler's patience; poll to the end.
	if v, err = c.Wait(ctx, v, 0); err != nil {
		return err
	}
	switch v.State {
	case service.JobDone:
	case service.JobCanceled:
		return fmt.Errorf("remote job %s canceled: %s", v.ID, v.Error)
	default:
		return fmt.Errorf("remote job %s failed: %s", v.ID, v.Error)
	}

	if jsonOut {
		b, err := service.EncodeJSON(v.Result)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	} else {
		r := v.Result
		fmt.Printf("%s via %s (job %s, cached=%t)\n", r.Circuit, baseURL, v.ID, v.Cached)
		fmt.Printf("%s: Tlogic=%d Tdisch=%d Ttotal=%d gates=%d Tclock=%d levels=%d\n",
			r.Algorithm, r.Stats.TLogic, r.Stats.TDisch, r.Stats.TTotal,
			r.Stats.Gates, r.Stats.TClock, r.Stats.Levels)
		if r.Degraded {
			fmt.Println("note: tuple budget overflowed; result degraded to the per-shape heuristic")
		}
	}
	if explain {
		ev, err := c.Explain(ctx, v.ID)
		if err != nil {
			return fmt.Errorf("explain job %s: %w", v.ID, err)
		}
		out := io.Writer(os.Stdout)
		if jsonOut {
			out = os.Stderr
		}
		fmt.Fprintln(out, ev.Attribution.Table())
	}
	if tracePath != "" {
		b, err := fetchTrace(ctx, c, tc.TraceID)
		if err != nil {
			return fmt.Errorf("fetch trace %s: %w", tc.TraceID, err)
		}
		if err := os.WriteFile(tracePath, b, 0o644); err != nil {
			return err
		}
		if !jsonOut {
			fmt.Printf("distributed trace %s written to %s; load it at ui.perfetto.dev\n",
				tc.TraceID, tracePath)
		}
	}
	return nil
}

// fetchTrace retries briefly on 404: a replica exports a job's spans as
// its worker unwinds, which can land a beat after the job turns terminal
// and the poll loop stops.
func fetchTrace(ctx context.Context, c *client.Client, traceID string) ([]byte, error) {
	var lastErr error
	for i := 0; i < 20; i++ {
		b, err := c.Trace(ctx, traceID)
		if err == nil {
			return b, nil
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			return nil, err
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil, lastErr
}

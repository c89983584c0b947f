package chaostest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/cluster"
	"soidomino/internal/service"
)

// node is one soimapd's lifecycle handle: service, listener and HTTP
// server on a fixed address, so a killed node restarts where the router
// and the campaign's client expect it.
type node struct {
	idx     int
	addr    string
	cfg     service.Config // Faults is re-armed or cleared before each restart
	svc     *service.Server
	httpSrv *http.Server
}

func (n *node) url() string { return "http://" + n.addr }

func (n *node) alive() bool { return n.svc != nil }

// start boots the node's service on ln. A node with a state dir
// recovers its journal and durable result store — warm cache,
// re-admitted jobs — exactly as a production restart with -state-dir
// would.
func (n *node) start(ln net.Listener) {
	n.svc = service.New(n.cfg)
	n.httpSrv = &http.Server{Handler: n.svc.Handler()}
	go n.httpSrv.Serve(ln)
}

// restart rebinds the node's fixed address and starts it again.
func (n *node) restart() error {
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return fmt.Errorf("node %d rebind %s: %w", n.idx, n.addr, err)
	}
	n.start(ln)
	return nil
}

// kill drops the node crash-style: the listener and every open
// connection close, then Abort stops the service without journal
// flushes or graceful drain — in-flight jobs die with only their
// accepted/running records on disk. The journal, not the shutdown path,
// is what makes a later restart correct.
func (n *node) kill() {
	n.httpSrv.Close()
	n.svc.Abort()
	n.svc = nil
}

// stop shuts the node down gracefully: intake stops, in-flight jobs
// finish, the durable state is flushed and closed.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.httpSrv.Shutdown(ctx)
	n.svc.Shutdown(ctx)
	n.svc = nil
}

// boot brings up the preset's topology: every node's listener is bound
// first so each service is created knowing its siblings' URLs (the
// shared cache tier's peer list), then a router fronts the fleet when
// there is more than one node. The campaign's client talks to the
// router, or to the one node.
func (c *campaign) boot() error {
	if c.p.stateDir {
		dir, err := os.MkdirTemp("", "soichaos-")
		if err != nil {
			return err
		}
		c.stateRoot = dir
	}
	var lns []net.Listener
	var urls []string
	for i := 0; i < c.p.replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		n := &node{idx: i, addr: ln.Addr().String(), cfg: service.Config{
			Workers:      c.cfg.Workers,
			QueueDepth:   c.cfg.QueueDepth,
			JobRetention: time.Minute,
		}}
		if len(lns) > 1 {
			for j, u := range urls {
				if j != i {
					n.cfg.Peers = append(n.cfg.Peers, u)
				}
			}
			n.cfg.PeerTimeout = 100 * time.Millisecond
		}
		if c.stateRoot != "" {
			n.cfg.StateDir = filepath.Join(c.stateRoot, fmt.Sprintf("replica%d", i))
		}
		if c.p.crash {
			n.cfg.JournalFsync = "always" // exercise the fsync path and its fault
		}
		n.cfg.Faults = c.arm(i)
		n.start(ln)
		c.nodes = append(c.nodes, n)
	}
	c.url = urls[0]
	if len(c.nodes) > 1 {
		rt, err := cluster.New(cluster.Config{
			Replicas:          urls,
			ReplicationFactor: 2,
			ProbeInterval:     20 * time.Millisecond,
			Client: client.Config{
				MaxAttempts: 3,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
				Budget:      2 * time.Second,
			},
		})
		if err != nil {
			return err
		}
		c.rt = rt
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		c.routerSrv = &http.Server{Handler: rt.Handler()}
		go c.routerSrv.Serve(ln)
		c.url = "http://" + ln.Addr().String()
	}
	c.cli = client.New(client.Config{
		BaseURL:   c.url,
		BaseDelay: 2 * time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
		Budget:    2 * time.Second,
	})
	return nil
}

// teardown stops whatever boot started, on every exit path: the router,
// every live node, then the state dirs they wrote.
func (c *campaign) teardown() {
	if c.routerSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		c.routerSrv.Shutdown(ctx)
		cancel()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, n := range c.nodes {
		if n.alive() {
			n.stop()
		}
	}
	if c.stateRoot != "" {
		os.RemoveAll(c.stateRoot)
	}
}

// checkHealth records a violation unless url answers /healthz with 200:
// the router and every live node must survive the campaign.
func (c *campaign) checkHealth(url, who string) {
	resp, err := http.Get(url + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		c.rep.Violations = append(c.rep.Violations,
			fmt.Sprintf("%s healthz after campaign: %v (err %v)", who, resp, err))
	}
	if resp != nil {
		resp.Body.Close()
	}
}

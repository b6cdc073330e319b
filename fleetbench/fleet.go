package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"anonradio/internal/fleet"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
)

// The fleet under test: three anonradiod nodes and one anonradio-router,
// in this process on loopback, wired as those daemons wire themselves with
// their default flags. On admit-churn the nodes journal (-wal-dir set, with
// the defaults -wal-sync always, a checkpoint every minute and automatic
// checkpoint pacing); the serve-* nodes do not, and restart from the
// snapshot they write at shutdown (-snapshot-on-shutdown,
// -restore-on-boot).

// nodeNames are the nodes' stable host names. The dialer maps them onto
// ephemeral loopback listeners, so rendezvous placement — and with it the
// load on every node and shard — is the same on every run, on every commit,
// without fixed ports.
var nodeNames = [3]string{"node-a", "node-b", "node-c"}

const routerName = "router"

// readHeaderTimeout is the one server.New sets by default; the traced run's
// own http.Servers use it too.
const readHeaderTimeout = 5 * time.Second

// dialer resolves the fleet's host names to the current loopback listeners.
type dialer struct {
	mu    sync.RWMutex
	addrs map[string]string
}

func newDialer() *dialer { return &dialer{addrs: make(map[string]string)} }

func (d *dialer) set(name, addr string) {
	d.mu.Lock()
	d.addrs[name] = addr
	d.mu.Unlock()
}

func (d *dialer) dial(ctx context.Context, _, addr string) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	target, ok := d.addrs[host]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fleetbench: unknown host %q", host)
	}
	var nd net.Dialer
	return nd.DialContext(ctx, "tcp", target)
}

// transport is http.DefaultTransport dialing through d, with proxies off
// (the host names exist only here) and at most idlePerHost kept-alive
// connections per host.
func (d *dialer) transport(idlePerHost int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.Proxy = nil
	t.DialContext = d.dial
	t.MaxIdleConnsPerHost = idlePerHost
	return t
}

// node is one in-process anonradiod.
type node struct {
	reg  *service.Registry
	srv  *server.Server
	hs   *http.Server // serves the traced handler; nil when untraced
	done chan error
	// recovery is what Open replayed (journaled nodes); restore is what
	// the boot-time snapshot restore loaded (restarted serve-* nodes).
	recovery *service.RecoveryReport
	restore  *service.RestoreReport
}

// shutdown drains the node's server and closes its registry, snapshotting
// it into snapshotDir first when one is given (the daemon's
// -snapshot-on-shutdown). A journaled registry closes without a final
// checkpoint, so its next Open replays the journal as after a crash.
func (n *node) shutdown(ctx context.Context, snapshotDir string) error {
	if n.hs != nil {
		_ = n.hs.Shutdown(ctx)
	} else {
		_ = n.srv.Shutdown(ctx)
	}
	<-n.done
	var err error
	if snapshotDir != "" {
		_, err = n.reg.Snapshot(snapshotDir)
	}
	n.reg.Close()
	return err
}

// persistence says how the nodes keep state across a restart: a journal
// directory per node (service.Open), or none, with an optional snapshot
// directory per node to restore at boot (-restore-on-boot).
type persistence struct {
	wal, restore *[3]string
}

// fleetUnderTest is the three nodes plus the router.
type fleetUnderTest struct {
	nodes     [3]*node
	router    *fleet.Router
	routerSrv *http.Server
	routerRT  *http.Transport
	done      chan error
}

// walDirs are the nodes' journal directories under base.
func walDirs(base string) [3]string {
	var dirs [3]string
	for i, name := range nodeNames {
		dirs[i] = filepath.Join(base, name)
	}
	return dirs
}

// bootFleet boots (or reboots) the three nodes and starts the router in
// front of them.
func bootFleet(d *dialer, tr *tracer, p persistence) (*fleetUnderTest, error) {
	f := &fleetUnderTest{done: make(chan error, 1)}
	for i, name := range nodeNames {
		n, err := bootNode(d, tr, i, name, p)
		if err != nil {
			f.shutdown()
			return nil, err
		}
		f.nodes[i] = n
	}
	var rt http.RoundTripper = d.transport(2)
	f.routerRT = rt.(*http.Transport)
	if tr != nil {
		rt = tr.roundTripper(rt)
	}
	urls := make([]string, len(nodeNames))
	for i, name := range nodeNames {
		urls[i] = "http://" + name
	}
	fl, err := fleet.New(urls, fleet.ClientOptions{
		BusyRetries:   3,
		MaxRetryAfter: 2 * time.Second,
		HTTP:          &http.Client{Transport: rt},
	})
	if err != nil {
		f.shutdown()
		return nil, err
	}
	f.router = fleet.NewRouter(fl, fleet.RouterOptions{ProbeInterval: time.Second, ProbeFailures: 3})
	f.router.Start()
	var h http.Handler = f.router.Handler()
	if tr != nil {
		h = tr.routerHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.router.Stop()
		f.router = nil
		f.shutdown()
		return nil, err
	}
	d.set(routerName, ln.Addr().String())
	f.routerSrv = &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	go func() { f.done <- f.routerSrv.Serve(ln) }()
	return f, nil
}

func bootNode(d *dialer, tr *tracer, idx int, name string, p persistence) (*node, error) {
	var opts service.Options
	if tr != nil {
		opts.BuildHook = tr.buildHook(idx)
	}
	n := &node{done: make(chan error, 1)}
	if p.wal != nil {
		opts.WAL = service.WALOptions{Dir: p.wal[idx], Sync: wal.SyncAlways, CheckpointEvery: time.Minute}
		reg, report, err := service.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", name, err)
		}
		n.reg, n.recovery = reg, report
		if !report.Clean() {
			reg.Close()
			return nil, fmt.Errorf("%s recovered with damage: %d journal records skipped", name, len(report.Skipped))
		}
	} else {
		n.reg = service.New(opts)
		if p.restore != nil {
			report, err := server.LoadSnapshot(n.reg, p.restore[idx])
			if err == nil && len(report.Skipped) > 0 {
				err = fmt.Errorf("%d entries skipped", len(report.Skipped))
			}
			if err != nil {
				n.reg.Close()
				return nil, fmt.Errorf("restoring %s: %w", name, err)
			}
			n.restore = report
		}
	}
	reg := n.reg
	n.srv = server.New(reg, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	d.set(name, ln.Addr().String())
	if tr != nil {
		n.hs = &http.Server{Handler: tr.nodeHandler(idx, n.srv.Handler()), ReadHeaderTimeout: readHeaderTimeout}
		go func() { n.done <- n.hs.Serve(ln) }()
	} else {
		go func() { n.done <- n.srv.Serve(ln) }()
	}
	return n, nil
}

// shutdown stops the router and the nodes and waits for every goroutine
// they started. It is safe on a partially booted fleet.
func (f *fleetUnderTest) shutdown() { _ = f.shutdownTo(nil) }

// shutdownTo is shutdown snapshotting each node into snapshotDirs first,
// when given.
func (f *fleetUnderTest) shutdownTo(snapshotDirs *[3]string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.router != nil {
		f.router.Stop()
	}
	if f.routerSrv != nil {
		_ = f.routerSrv.Shutdown(ctx)
		if err := <-f.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "fleetbench: router: %v\n", err)
		}
	}
	if f.routerRT != nil {
		f.routerRT.CloseIdleConnections()
	}
	var first error
	for i, n := range f.nodes {
		if n == nil {
			continue
		}
		dir := ""
		if snapshotDirs != nil {
			dir = snapshotDirs[i]
		}
		if err := n.shutdown(ctx, dir); err != nil && first == nil {
			first = fmt.Errorf("snapshotting %s: %w", nodeNames[i], err)
		}
	}
	return first
}

// regs returns the nodes' registries.
func (f *fleetUnderTest) regs() []*service.Registry {
	out := make([]*service.Registry, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.reg
	}
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"quditkit/internal/chaos"
)

// tenantsJSON registers the two tenants small_jobs_journal alternates
// between; the 2:1 weights exercise deficit-round-robin scheduling.
const tenantsJSON = `{"tenants": [
  {"name": "alpha", "api_key": "bench-alpha", "weight": 2},
  {"name": "beta", "api_key": "bench-beta", "weight": 1}
]}`

// tenantKeys are the API keys of tenantsJSON, in submission rotation.
var tenantKeys = []string{"bench-alpha", "bench-beta"}

// topology is the daemon layout a workload runs against.
type topology struct {
	// fleet selects a coordinator with two workers instead of one
	// standalone node.
	fleet bool
	// journal adds -journal (and, on a coordinator, -checkpoint).
	journal bool
	// tenants adds -tenants with the two keys of tenantsJSON.
	tenants bool
	// shards, when positive, is -shards on every node that simulates
	// (the standalone node, or each worker); zero keeps quditd's default.
	shards int
	// retain, when positive, is a standalone node's -retain.
	retain int
}

// node is one running quditd process.
type node struct {
	name string
	addr string
	pid  int
}

func (n *node) url() string { return "http://" + n.addr }

// deployment is one launched set of daemons: a standalone node, or a
// coordinator followed by its workers.
type deployment struct {
	fl    *chaos.Fleet
	nodes []*node
	ckpt  string // coordinator checkpoint file; empty for standalone
}

// front is the node clients submit to.
func (d *deployment) front() *node { return d.nodes[0] }

// simulators are the nodes that execute jobs (they own plan and
// result caches).
func (d *deployment) simulators() []*node {
	if len(d.nodes) == 1 {
		return d.nodes
	}
	return d.nodes[1:]
}

// close SIGKILLs every daemon of the deployment and waits for each to
// exit.
func (d *deployment) close() { d.fl.Close() }

// freeAddr reserves a loopback port for a daemon to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launch starts the topology's daemons in dir, a fresh directory that
// receives their logs, journals and checkpoint, and returns once every
// node serves /v1/stats and, for a fleet, both workers show alive.
func launch(bin, dir string, topo topology, seed int64, c *client) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{fl: chaos.NewFleet(bin)}
	d.fl.Dir = dir
	seedArg := strconv.FormatInt(seed, 10)
	start := func(name string, args ...string) (*node, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args = append([]string{"-addr", addr, "-seed", seedArg}, args...)
		if err := d.fl.Start(name, args...); err != nil {
			return nil, err
		}
		n := &node{name: name, addr: addr}
		d.nodes = append(d.nodes, n)
		if err := chaos.WaitReady(n.url()+"/v1/stats", 30*time.Second); err != nil {
			return nil, fmt.Errorf("%s: %w (log %s)", name, err, d.fl.LogPath(name))
		}
		if n.pid, err = findPID(bin, addr); err != nil {
			return nil, err
		}
		return n, nil
	}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}

	var shards []string
	if topo.shards > 0 {
		shards = []string{"-shards", strconv.Itoa(topo.shards)}
	}
	if !topo.fleet {
		args := shards
		if topo.retain > 0 {
			args = append(args, "-retain", strconv.Itoa(topo.retain))
		}
		if topo.journal {
			args = append(args, "-journal", filepath.Join(dir, "journal"))
		}
		if topo.tenants {
			path := filepath.Join(dir, "tenants.json")
			if err := os.WriteFile(path, []byte(tenantsJSON), 0o644); err != nil {
				return fail(err)
			}
			args = append(args, "-tenants", path)
		}
		if _, err := start("node", args...); err != nil {
			return fail(err)
		}
		return d, nil
	}

	var args []string
	if topo.journal {
		d.ckpt = filepath.Join(dir, "coord.ckpt")
		args = append(args, "-journal", filepath.Join(dir, "journal"), "-checkpoint", d.ckpt)
	}
	coord, err := start("coord", append([]string{"-role", "coordinator"}, args...)...)
	if err != nil {
		return fail(err)
	}
	for _, id := range []string{"w1", "w2"} {
		if _, err := start(id, append([]string{"-role", "worker", "-coordinator", coord.url(), "-id", id}, shards...)...); err != nil {
			return fail(err)
		}
	}
	if err := waitAlive(c, coord, 2); err != nil {
		return fail(err)
	}
	return d, nil
}

// waitAlive polls a coordinator until n workers are alive.
func waitAlive(c *client, coord *node, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.stats(coord)
		alive := 0
		for _, w := range st.Workers {
			if w.Alive && !w.Draining {
				alive++
			}
		}
		if err == nil && alive >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator never reached %d live workers (last error %v)", n, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// findPID locates the daemon started with this binary and listen
// address by scanning /proc; chaos.Fleet does not expose process IDs.
func findPID(bin, addr string) (int, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		args := strings.Split(strings.TrimRight(string(data), "\x00"), "\x00")
		if args[0] != bin {
			continue
		}
		for i := 1; i+1 < len(args); i++ {
			if args[i] == "-addr" && args[i+1] == addr {
				return pid, nil
			}
		}
	}
	return 0, fmt.Errorf("no process of %s listening on %s", bin, addr)
}

// procUsage is a point-in-time reading of one process from /proc.
type procUsage struct {
	cpuMS float64 // user+system CPU since start
	hwmMB float64 // peak resident set (VmHWM)
	rssMB float64 // current resident set (VmRSS)
}

// clockTicksPerSec is USER_HZ, fixed at 100 on Linux.
const clockTicksPerSec = 100

// readProc samples CPU time and memory of pid.
func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, err
	}
	u.cpuMS = (utime + stime) * 1000 / clockTicksPerSec
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 64)
		if err != nil {
			continue
		}
		switch key {
		case "VmHWM":
			u.hwmMB = kb / 1024
		case "VmRSS":
			u.rssMB = kb / 1024
		}
	}
	return u, nil
}

// usage sums readProc over every node of the deployment.
func (d *deployment) usage() (procUsage, error) {
	var sum procUsage
	for _, n := range d.nodes {
		u, err := readProc(n.pid)
		if err != nil {
			return sum, fmt.Errorf("%s: %w", n.name, err)
		}
		sum.cpuMS += u.cpuMS
		sum.hwmMB += u.hwmMB
		sum.rssMB += u.rssMB
	}
	return sum, nil
}

// gauge tracks HTTP requests in flight across all clients.
type gauge struct{ cur, max atomic.Int64 }

func (g *gauge) add(n int64) {
	v := g.cur.Add(n)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// client is one load-generating HTTP connection: its transport holds at
// most one connection per host, so two clients never exceed two
// connections to the daemon they drive.
type client struct {
	hc *http.Client
	g  *gauge
}

func newClient(g *gauge) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, g: g}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body. An SSE
// stream ends when its job settles, so do also serves event reads.
func (c *client) do(method, url, key string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	c.g.add(1)
	defer c.g.add(-1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// nodeStats is the subset of /v1/stats (node or coordinator) the
// benchmark reads.
type nodeStats struct {
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
	Requeued        uint64 `json:"requeued"`
	Workers         []struct {
		Alive    bool `json:"alive"`
		Draining bool `json:"draining"`
	} `json:"workers"`
}

func (c *client) stats(n *node) (nodeStats, error) {
	var st nodeStats
	code, data, err := c.do(http.MethodGet, n.url()+"/v1/stats", "", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("%s /v1/stats: status %d", n.name, code)
	}
	return st, json.Unmarshal(data, &st)
}

// simStats sums the cache counters of every simulating node.
func (c *client) simStats(d *deployment) (nodeStats, error) {
	var sum nodeStats
	for _, n := range d.simulators() {
		st, err := c.stats(n)
		if err != nil {
			return sum, err
		}
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.PlanCacheHits += st.PlanCacheHits
		sum.PlanCacheMisses += st.PlanCacheMisses
	}
	if len(d.nodes) > 1 {
		st, err := c.stats(d.front())
		if err != nil {
			return sum, err
		}
		sum.Requeued = st.Requeued
	}
	return sum, nil
}

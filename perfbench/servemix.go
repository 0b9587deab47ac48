package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ws "wavescalar"
)

const (
	serveWorkers = 2 // server simulation workers
	serveClients = 2 // closed-loop clients, one keep-alive connection each
	hotShare     = 0.8
	// replayCells caps the fresh cells the traced run replays through a
	// bare Explorer.RunOne.
	replayCells = 100
	// clientTimeout bounds one request; a failed request counts as this
	// slow, so it misses any latency limit.
	clientTimeout = 60 * time.Second
)

// Fresh cells are drawn from this grid over every bundled workload; the
// hot set is drawn from it too, and no cell is requested fresh twice.
var (
	serveClusters = []int{1, 4, 16}
	serveK        = []int{2, 3, 4, 6, 8}
	serveL1KB     = []int{8, 16, 32}
	serveL2MB     = []int{1, 2}
	serveThreads  = []int{1, 2, 4, 8} // multithreaded workloads only
)

// runCell is one /v1/runs request's cell.
type runCell struct {
	app                             string
	clusters, k, l1kb, l2mb, thread int
}

func (c runCell) body() []byte {
	b, _ := json.Marshal(map[string]any{
		"workload": c.app, "scale": "tiny", "threads": c.thread,
		"config": map[string]int{"clusters": c.clusters, "k": c.k, "l1_kb": c.l1kb, "l2_mb": c.l2mb},
	})
	return b
}

// config is the configuration the server resolves the request to, built
// here from the public API so the cache key can be checked independently.
func (c runCell) config() ws.Config {
	arch := ws.BaselineArch()
	arch.Clusters = c.clusters
	arch.L1KB = c.l1kb
	arch.L2MB = c.l2mb
	cfg := ws.Baseline(arch)
	cfg.K = c.k
	return cfg
}

// serveUniverse enumerates every cell the generator may request.
func serveUniverse() ([]runCell, error) {
	var out []runCell
	for _, w := range ws.Workloads() {
		threads := []int{1}
		if w.Build(ws.ScaleTiny).MaxThreads > 1 {
			threads = serveThreads
		}
		for _, c := range serveClusters {
			for _, k := range serveK {
				for _, l1 := range serveL1KB {
					for _, l2 := range serveL2MB {
						for _, t := range threads {
							out = append(out, runCell{w.Name, c, k, l1, l2, t})
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workloads")
	}
	return out, nil
}

type runResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	Result struct {
		App       string  `json:"app"`
		Threads   int     `json:"threads"`
		AIPC      float64 `json:"aipc"`
		Cycles    uint64  `json:"cycles"`
		SimCycles uint64  `json:"sim_cycles"`
		Err       string  `json:"err"`
	} `json:"result"`
}

// sample is one completed request.
type sample struct {
	cell    int // index into the universe
	hot     bool
	ms      float64
	ok      bool
	body    []byte
	started time.Time
}

// serveState is one set-up: a server on a loopback listener, two clients
// and the warmed hot set.
type serveState struct {
	srv      *ws.Server
	cache    *ws.ExploreCache
	httpSrv  *http.Server
	served   chan error
	base     string
	clients  []*http.Client
	dials    atomic.Int64
	universe []runCell
	hot      []int // universe indices of the hot set
	fresh    []int // universe indices of fresh cells, in request order
	nextNew  atomic.Int64
	first    map[int][]byte // hot cell -> expected hit body
}

func newServeState(seed uint64) (*serveState, error) {
	s := &serveState{served: make(chan error, 1), first: map[int][]byte{}}
	u, err := serveUniverse()
	if err != nil {
		return nil, err
	}
	s.universe = u
	// The hot set takes one seeded cell of every workload at every
	// cluster count, so its warm-up cost barely depends on the seed; the
	// rest of the universe, in seeded order, supplies the fresh cells.
	type stratum struct {
		app      string
		clusters int
	}
	taken := map[stratum]bool{}
	for _, i := range rand.New(rand.NewPCG(seed, 0x5e)).Perm(len(u)) {
		if st := (stratum{u[i].app, u[i].clusters}); !taken[st] {
			taken[st] = true
			s.hot = append(s.hot, i)
		} else {
			s.fresh = append(s.fresh, i)
		}
	}

	s.cache = ws.NewExploreCache()
	s.srv, err = ws.NewServer(ws.ServerWorkers(serveWorkers), ws.ServerCache(s.cache))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv}
	go func() { s.served <- s.httpSrv.Serve(ln) }()

	for i := 0; i < serveClients; i++ {
		dialer := &net.Dialer{}
		s.clients = append(s.clients, &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					s.dials.Add(1)
					return dialer.DialContext(ctx, network, addr)
				},
			},
		})
	}

	// Warm the hot set through the server itself, one client per half.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var werr error
	for ci := range s.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for j := ci; j < len(s.hot); j += len(s.clients) {
				smp := s.post(ci, s.hot[j], true)
				mu.Lock()
				if !smp.ok {
					werr = fmt.Errorf("warming hot cell %d failed", s.hot[j])
				} else {
					s.first[s.hot[j]] = bytes.Replace(smp.body, []byte(`"cached":false`), []byte(`"cached":true`), 1)
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	if werr != nil {
		s.close()
		return nil, werr
	}
	return s, nil
}

// post sends one request on client ci and reads the whole reply.
func (s *serveState) post(ci, cell int, hot bool) sample {
	smp := sample{cell: cell, hot: hot, started: time.Now()}
	resp, err := s.clients[ci].Post(s.base+"/v1/runs", "application/json", bytes.NewReader(s.universe[cell].body()))
	if err == nil {
		smp.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		smp.ok = err == nil && resp.StatusCode/100 == 2
	}
	smp.ms = ms(time.Since(smp.started))
	return smp
}

// close stops the listener and the server and waits for both. Their
// errors are dropped: every measurement is taken by then, and the server
// has no journal to flush.
func (s *serveState) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.httpSrv.Shutdown(ctx)
	<-s.served
	_ = s.srv.Shutdown(ctx)
}

// loop runs the closed loop for budget: each client sends its next
// request only after the previous reply, drawing a hot cell with
// probability hotShare and otherwise the next never-requested cell.
func (s *serveState) loop(seed uint64, phase int, budget time.Duration, rec *recorder) ([]sample, time.Duration, error) {
	out := make([][]sample, len(s.clients))
	var exhausted atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range s.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(0x100+16*phase+ci)))
			for time.Since(start) < budget {
				hot := rng.Float64() < hotShare
				var cell int
				if hot {
					cell = s.hot[rng.IntN(len(s.hot))]
				} else {
					n := s.nextNew.Add(1) - 1
					if n >= int64(len(s.fresh)) {
						exhausted.Store(true)
						return
					}
					cell = s.fresh[n]
				}
				op := rec.id()
				smp := s.post(ci, cell, hot)
				if rec != nil {
					name := "client.request miss"
					if hot {
						name = "client.request hit"
					}
					rec.add(op, 0, op, name, smp.started, smp.started.Add(time.Duration(smp.ms*1e6)), nil)
				}
				out[ci] = append(out[ci], smp)
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)
	if exhausted.Load() {
		return nil, 0, fmt.Errorf("ran out of fresh cells after %d", len(s.fresh))
	}
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall, nil
}

// check verifies every reply: hot cells must be cache hits byte-identical
// to the cell's first reply, fresh cells must have simulated without a
// cell error, and every key must equal the cache key the library computes
// for the request (looked up through an explorer sharing the server's
// cache, so a hit proves the server stored the cell under that key).
func (s *serveState) check(rep *report, samples []sample) {
	oracle, err := ws.NewExplorer(ws.WithCache(s.cache))
	if err != nil {
		rep.mismatch("oracle explorer: %v", err)
		return
	}
	defer oracle.Close()
	keys := map[int]string{}
	for _, smp := range samples {
		if !smp.ok {
			continue
		}
		var r runResponse
		if err := json.Unmarshal(smp.body, &r); err != nil {
			rep.mismatch("cell %d: bad reply %q", smp.cell, smp.body)
			continue
		}
		c := s.universe[smp.cell]
		switch {
		case smp.hot && !r.Cached:
			rep.mismatch("hot cell %+v missed the cache", c)
		case smp.hot && !bytes.Equal(smp.body, s.first[smp.cell]):
			rep.mismatch("hot cell %+v: reply %s differs from its first reply %s", c, smp.body, s.first[smp.cell])
		case !smp.hot && r.Cached:
			rep.mismatch("fresh cell %+v was answered from the cache", c)
		case r.Result.Err != "":
			rep.mismatch("cell %+v: %s", c, r.Result.Err)
		}
		want, ok := keys[smp.cell]
		if !ok {
			w, err := ws.WorkloadByName(c.app)
			if err != nil {
				rep.mismatch("cell %+v: %v", c, err)
				continue
			}
			cell, cached, err := oracle.RunOne(context.Background(), c.config(), w, ws.ScaleTiny, []int{c.thread})
			if err != nil || !cached {
				rep.mismatch("cell %+v: not in the server's cache under the library's key (cached=%v, err=%v)", c, cached, err)
				continue
			}
			if cell.AIPC != r.Result.AIPC || cell.Cycles != r.Result.Cycles || cell.SimCycles != r.Result.SimCycles {
				rep.mismatch("cell %+v: reply result differs from the cached cell", c)
			}
			want = cell.Key
			keys[smp.cell] = want
		}
		if r.Key != want {
			rep.mismatch("cell %+v: reply key %s, library key %s", c, r.Key, want)
		}
	}
}

// hotSHA is the SHA-256 over the hot set's warm-up replies in hot-set
// order, pinned for the recorded seeds.
func (s *serveState) hotSHA() string {
	h := sha256.New()
	for _, i := range s.hot {
		h.Write(s.first[i])
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrape reads the wsd_* counters the traced run reports.
func (s *serveState) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]string{
		`wsd_sims_total{outcome="completed"}`: "server.sims",
		"wsd_cache_hits_total":                "server.cache_hits",
		"wsd_admission_rejected_total":        "server.admission_rejected",
		"wsd_singleflight_shared_total":       "server.singleflight_shared",
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if name, ok := want[f[0]]; ok {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != len(want) {
		return nil, fmt.Errorf("/metrics lacks some of %v", want)
	}
	return out, nil
}

// serveTally is what a loop's samples add up to: latencies of all
// requests (a failed request counts as clientTimeout), of hits and of
// misses, and the successful requests and fresh cells with their
// simulated cycles.
type serveTally struct {
	lat, hit, miss []float64
	ok, fresh      int
	cycles         uint64
}

// tally folds samples into the report's operation counts.
func tally(rep *report, samples []sample) serveTally {
	var t serveTally
	for _, smp := range samples {
		rep.attempted++
		if !smp.ok {
			rep.failed++
			t.lat = append(t.lat, ms(clientTimeout))
			continue
		}
		t.ok++
		t.lat = append(t.lat, smp.ms)
		if smp.hot {
			t.hit = append(t.hit, smp.ms)
			continue
		}
		t.miss = append(t.miss, smp.ms)
		var r runResponse
		if json.Unmarshal(smp.body, &r) == nil {
			t.cycles += r.Result.SimCycles
			t.fresh++
		}
	}
	return t
}

// runServeMix measures the closed loop against an in-process server.
func runServeMix(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	var s *serveState
	err := repeatSetup(rep, func() (func(), error) {
		st, err := newServeState(o.seed)
		if err != nil {
			return nil, err
		}
		s = st
		return st.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	if p, ok := o.pins.ServeHotSHA[fmt.Sprint(o.seed)]; ok && s.hotSHA() != p {
		rep.mismatch("hot set of seed %d: reply sha %s, pinned %s", o.seed, s.hotSHA(), p)
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	validity := func(samples []sample) {
		hits := 0
		for _, smp := range samples {
			if smp.hot {
				hits++
			}
		}
		conns := s.dials.Load()
		fmt.Fprintf(o.notes, "# client.connections=%d (nproc %d) hit share %.3f over %d requests\n",
			conns, nproc(), float64(hits)/float64(len(samples)), len(samples))
		if conns > int64(nproc()) {
			rep.mismatch("generator opened %d connections, more than nproc=%d", conns, nproc())
		}
	}

	if !o.trace {
		heap := startHeapSampler(time.Second)
		samples, wall, err := s.loop(o.seed, 0, budget, nil)
		if err != nil {
			return nil, err
		}
		rep.values["heap_peak_mb"] = heap.medianPeakMB()
		t := tally(rep, samples)
		rep.values["runs_per_s"] = float64(t.ok) / wall.Seconds()
		rep.values["sweep_cells_per_s"] = float64(t.fresh) / wall.Seconds()
		rep.values["sim_cycles_per_s"] = float64(t.cycles) / wall.Seconds()
		latencies(rep, o.notes, t.lat)
		validity(samples)
		s.check(rep, samples)
		return rep, nil
	}

	plain, plainWall, err := s.loop(o.seed, 0, budget/2, nil)
	if err != nil {
		return nil, err
	}
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rep.spans = rec
	traced, tracedWall, err := s.loop(o.seed, 1, budget/2, rec)
	if err != nil {
		return nil, err
	}
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	for name, v := range after {
		rep.values[name] = v - before[name]
	}
	rep.values["trace.overhead_frac"] = (float64(len(plain))/plainWall.Seconds())/(float64(len(traced))/tracedWall.Seconds()) - 1

	t := tally(rep, plain)
	tally(rep, traced)
	rep.values["run_hit_p50_ms"] = median(t.hit)
	rep.values["run_miss_p50_ms"] = median(t.miss)
	rep.values["server.hit_share"] = float64(len(t.hit)) / float64(len(t.hit)+len(t.miss))
	rep.values["client.connections"] = float64(s.dials.Load())
	all := append(append([]sample(nil), plain...), traced...)
	validity(all)
	s.check(rep, all)

	// Replay the untraced half's fresh cells through Explorer.RunOne on a
	// fresh explorer: the server's overhead on a miss is what its p50
	// exceeds the bare RunOne p50 by.
	replay, err := ws.NewExplorer()
	if err != nil {
		return nil, err
	}
	defer replay.Close()
	var bare []float64
	for _, smp := range plain {
		if smp.hot || !smp.ok {
			continue
		}
		if len(bare) == replayCells {
			break
		}
		c := s.universe[smp.cell]
		w, err := ws.WorkloadByName(c.app)
		if err != nil {
			return nil, err
		}
		op := rec.id()
		t0 := time.Now()
		if _, _, err := replay.RunOne(ctx, c.config(), w, ws.ScaleTiny, []int{c.thread}); err != nil {
			return nil, err
		}
		rec.add(op, 0, op, "explore.run_one", t0, time.Now(), nil)
		bare = append(bare, ms(time.Since(t0)))
	}
	sort.Float64s(bare)
	rep.values["server.miss_overhead_ms"] = rep.values["run_miss_p50_ms"] - quantile(bare, 0.5)
	fmt.Fprintf(o.notes, "# hit share %.3f; miss p50 %.2f ms against bare RunOne p50 %.2f ms over %d cells\n",
		rep.values["server.hit_share"], rep.values["run_miss_p50_ms"], quantile(bare, 0.5), len(bare))
	return rep, nil
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

const (
	// screenScale and screenSites size the study whose outputs the
	// screen-rpc workload's snapshot is compiled from.
	screenScale = 0.02
	screenSites = 300
	// screenConns caps the load generator's connections (and workers).
	screenConns = 2
	// refRate is the fixed offered load of the reference phase, in
	// requests per second.
	refRate = 400
	// refShare is the share of the window spent at refRate; the rest
	// measures saturation throughput.
	refShare = 0.65
	// warmup is how long each phase sends untimed traffic before it is
	// timed; it comes on top of the window.
	warmup = time.Second
	// exchangeBatch is the size of an exchange's screening batch.
	exchangeBatch = 1024
	// failedLatency stands in for the latency of a failed request: a
	// shed, timed-out or error response misses any latency limit.
	failedLatency = 10 * time.Second
)

// screenReq is one request of the mix: a daas_screenBatch over addrs,
// or a daas_screenDomain lookup of domain when addrs is nil.
type screenReq struct {
	addrs  []ethtypes.Address
	domain string
}

// mixBlock is the request mix, one block of 20: 16 wallet batches (two
// of each size 1-8), 3 domain lookups and, last, one exchange batch.
// Every block has this composition; the seed orders the first 19 and
// picks the addresses, half of them (and half the domains) listed in
// the snapshot. Exchanges screen on a fixed cadence, one batch per
// block, so two of them never queue behind each other by chance of the
// draw.
var mixBlock = []int{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0, 0, 0, exchangeBatch}

// requestMix draws n requests, in whole blocks of mixBlock.
func requestMix(snap *screen.Snapshot, rnd *splitmix, n int) []screenReq {
	recs := snap.Records()
	domains := snap.Domains()
	addr := func() ethtypes.Address {
		if rnd.intn(2) == 0 && len(recs) > 0 {
			return recs[rnd.intn(len(recs))].Address
		}
		return cleanAddr(rnd)
	}
	blocks := (n + len(mixBlock) - 1) / len(mixBlock)
	out := make([]screenReq, 0, blocks*len(mixBlock))
	order := append([]int(nil), mixBlock...)
	for b := 0; b < blocks; b++ {
		for i := len(order) - 2; i > 0; i-- {
			j := rnd.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, size := range order {
			var req screenReq
			if size == 0 {
				if rnd.intn(2) == 0 && len(domains) > 0 {
					req.domain = domains[rnd.intn(len(domains))]
				} else {
					req.domain = fmt.Sprintf("clean-%d.example", rnd.next()%1e9)
				}
			} else {
				req.addrs = make([]ethtypes.Address, size)
				for k := range req.addrs {
					req.addrs[k] = addr()
				}
			}
			out = append(out, req)
		}
	}
	return out
}

// screenEnv is the served snapshot and its loopback server.
type screenEnv struct {
	w       *worldgen.World
	snap    *screen.Snapshot
	compile time.Duration
	h       *countingHandler
	srv     *loopbackServer
	study   *studyResult
	gen     time.Duration
}

// newScreenEnv runs a study and the §8.2 site hunt, compiles their
// outputs into a snapshot, and serves it as daasctl serve-screen does:
// rpc.Server with default Limits through Server.HTTPServer.
func newScreenEnv(o options) (*screenEnv, error) {
	w, gen, err := generateWorld(o.Seed, screenScale)
	if err != nil {
		return nil, err
	}
	var cs *countingSource
	src := core.ChainSource(core.LocalSource{Chain: w.Chain})
	if o.Trace {
		src, cs = wrapCounting(src)
	}
	res, err := studyOnce(daas.New(src, w.Labels, w.Oracle), cs, studyOptions(screenScale), o.Tracer, 0)
	if err != nil {
		return nil, err
	}
	sites, err := newSiteEnv(o.Seed, screenSites)
	if err != nil {
		return nil, err
	}
	res.sites, err = sites.hunt(nil)
	sites.close()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	snap := screen.Compile(res.study.Dataset, res.study.Families, res.sites.PhishingDomains())
	compile := time.Since(start)
	reg := obs.NewRegistry()
	eng := screen.NewEngine(reg)
	eng.Swap(snap)
	rs := &rpc.Server{Screen: eng, Metrics: reg}
	h := &countingHandler{h: rs}
	hs := rs.HTTPServer("")
	hs.Handler = h
	srv, err := serveLoopback(hs)
	if err != nil {
		return nil, err
	}
	return &screenEnv{w: w, snap: snap, compile: compile, h: h, srv: srv, study: res, gen: gen}, nil
}

// loadResult is one measurement: the reference phase's latencies and
// the saturation phase's throughput.
type loadResult struct {
	lat, late    []float64 // reference phase, seconds
	exchange     []bool    // reference phase: request i is an exchange batch
	backlog      int
	addrs        int // addresses screened in the saturation phase
	satWall      time.Duration
	satBusy      time.Duration
	attempted    int
	failed       int
	mismatches   int
	verdicts     int
	refRequests  int
	satRequests  int
	handlerStats handlerStats
}

// sender issues requests over the shared client and checks every
// verdict against the snapshot.
type sender struct {
	client *rpc.Client
	snap   *screen.Snapshot
	tr     *tracer
	parent int

	mu         sync.Mutex
	failed     int
	mismatches int
	verdicts   int
}

// send issues one request and returns the addresses it screened,
// whether it succeeded, and when the response arrived (checking the
// verdicts comes after).
func (s *sender) send(req screenReq) (int, bool, time.Time) {
	id := s.tr.start("rpc.request", s.parent)
	bad, n := 0, 0
	var (
		err    error
		listed bool
		got    []rpc.ScreenResult
	)
	if req.addrs == nil {
		listed, err = s.client.ScreenDomain(req.domain)
	} else {
		got, err = s.client.ScreenBatch(req.addrs)
	}
	end := time.Now()
	s.tr.end(id)
	if req.addrs == nil {
		if err == nil {
			n = 1
			if listed != s.snap.LookupDomain(req.domain) {
				bad++
			}
		}
	} else {
		if err == nil {
			n = len(req.addrs)
			for i, a := range req.addrs {
				if i >= len(got) || !verdictMatches(s.snap, a, got[i]) {
					bad++
				}
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.failed++
		return 0, false, end
	}
	s.verdicts += n
	s.mismatches += bad
	if req.addrs == nil {
		return 0, true, end
	}
	return n, true, end
}

// verdictMatches compares a wire verdict with the snapshot's answer.
func verdictMatches(snap *screen.Snapshot, a ethtypes.Address, got rpc.ScreenResult) bool {
	rec, ok := snap.Lookup(a)
	if got.Address != a || got.Listed != ok {
		return false
	}
	if !ok {
		return got.Kind == "" && got.Family == "" && got.Reason == ""
	}
	return got.Kind == rec.Kind.String() && got.Reason == rec.Reason && got.Family == rec.Family &&
		got.Tainted == rec.Tainted && got.StaticFlagged == rec.StaticFlagged
}

// openLoop sends reqs from screenConns workers at refRate: request i
// is due at t0 + i/refRate, a worker takes the next request in order
// and waits for its due time, and each latency is timed from when the
// request was due.
func (s *sender) openLoop(reqs []screenReq) (lat, late []float64, backlog int) {
	interval := time.Second / refRate
	lat = make([]float64, len(reqs))
	late = make([]float64, len(reqs))
	var next, owedMax atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < screenConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				sleepUntil(due)
				start := time.Now()
				owed := int64(start.Sub(t0)/interval) - int64(i)
				for cur := owedMax.Load(); owed > cur && !owedMax.CompareAndSwap(cur, owed); cur = owedMax.Load() {
				}
				_, ok, end := s.send(reqs[i])
				d := end.Sub(due)
				if !ok {
					d = failedLatency
				}
				lat[i] = d.Seconds()
				late[i] = start.Sub(due).Seconds()
			}
		}()
	}
	wg.Wait()
	return lat, late, int(owedMax.Load())
}

// closedLoop runs one worker per pool for d, each sending its pool's
// requests back to back, and returns the addresses screened, the
// requests sent, the workers' summed time in requests and the wall time.
func (s *sender) closedLoop(pools [][]screenReq, d time.Duration) (addrs, requests int, busy, wall time.Duration) {
	var nAddrs, nRequests, nBusy atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, pool := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				rs := time.Now()
				n, _, end := s.send(pool[i%len(pool)])
				nBusy.Add(int64(end.Sub(rs)))
				nAddrs.Add(int64(n))
				nRequests.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(nAddrs.Load()), int(nRequests.Load()), time.Duration(nBusy.Load()), time.Since(start)
}

// drive runs the reference phase (open loop at refRate from
// screenConns connections) and then the saturation phase (closed loop,
// screenConns workers back to back) over window, each after a warm-up
// of its own.
func (e *screenEnv) drive(window time.Duration, seed uint64, tr *tracer) (*loadResult, error) {
	client := rpc.NewClient(e.srv.url)
	client.HTTPClient = newHTTPClient(screenConns)
	s := &sender{client: client, snap: e.snap, tr: tr}
	res := &loadResult{}

	// Warm-up: the same traffic, checked and counted but not timed, so
	// connection set-up and the first requests' heap growth stay out of
	// the reference phase's tail.
	runtime.GC()
	s.parent = tr.start("screen.warmup", 0)
	warm := requestMix(e.snap, newRand(seed, "warm-mix"), int(warmup.Seconds()*refRate))
	s.openLoop(warm)
	tr.end(s.parent)

	refWindow := time.Duration(float64(window) * refShare)
	reqs := requestMix(e.snap, newRand(seed, "ref-mix"), int(refWindow.Seconds()*refRate))
	res.exchange = make([]bool, len(reqs))
	for i, r := range reqs {
		res.exchange[i] = len(r.addrs) == exchangeBatch
	}
	s.parent = tr.start("screen.reference", 0)
	res.lat, res.late, res.backlog = s.openLoop(reqs)
	tr.end(s.parent)
	res.refRequests = len(reqs)

	// Saturation phase: each worker cycles through its own pool, first
	// untimed for warmup and then timed. Without the warm-up the first
	// half second or so after the collection ran at about half the
	// closed loop's pace, and how long that lasted varied by process.
	pools := make([][]screenReq, screenConns)
	for c := range pools {
		pools[c] = requestMix(e.snap, newRand(seed+uint64(c), "sat-mix"), 1024)
	}
	runtime.GC()
	s.parent = tr.start("screen.saturation_warmup", 0)
	_, warmSat, _, _ := s.closedLoop(pools, warmup)
	tr.end(s.parent)
	s.parent = tr.start("screen.saturation", 0)
	res.addrs, res.satRequests, res.satBusy, res.satWall = s.closedLoop(pools, window-refWindow)
	tr.end(s.parent)
	res.attempted = len(warm) + warmSat + res.refRequests + res.satRequests
	res.failed, res.mismatches, res.verdicts = s.failed, s.mismatches, s.verdicts
	return res, nil
}

// runScreenRPC is the screen-rpc workload.
func runScreenRPC(o options) (*report, error) {
	rep := &report{}
	start := time.Now()
	e, err := newScreenEnv(o)
	if err != nil {
		return nil, err
	}
	defer e.srv.close()
	setup := time.Since(start).Seconds()
	rep.e2e("setup_s", setup, "s")
	rep.layer("worldgen.generate_s", e.gen.Seconds(), "s")

	window := o.budget()
	if o.Trace {
		window /= 2
	}
	res, err := e.drive(window, o.Seed, nil)
	if err != nil {
		return nil, err
	}
	var traced *loadResult
	if o.Trace {
		e.h.on.Store(true)
		if traced, err = e.drive(window, o.Seed, o.Tracer); err != nil {
			return nil, err
		}
		traced.handlerStats = e.h.stats()
	}
	for _, r := range []*loadResult{res, traced} {
		if r == nil {
			continue
		}
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	mismatches, verdicts := res.mismatches, res.verdicts
	if traced != nil {
		mismatches += traced.mismatches
		verdicts += traced.verdicts
	}
	rep.check("screen.wire_equals_snapshot", mismatches == 0 && verdicts > 0,
		"%d of %d wire verdicts differ from Snapshot.Lookup/LookupDomain", mismatches, verdicts)

	addrsS := float64(res.addrs) / res.satWall.Seconds()
	var wallet, exchange []float64
	for i, l := range res.lat {
		if res.exchange[i] {
			exchange = append(exchange, l)
		} else {
			wallet = append(wallet, l)
		}
	}
	rep.e2e("units_s", addrsS, "1/s")
	rep.EndToEnd = append(rep.EndToEnd,
		pooledQuantile("op_p50_ms", res.lat, 0.5, 1000, "ms"),
		pooledQuantile("op_p99_ms", res.lat, 0.99, 1000, "ms"))
	rep.Named = append(rep.Named,
		pooledQuantile("screen_p50_ms", res.lat, 0.5, 1000, "ms"),
		pooledQuantile("screen_p99_ms", res.lat, 0.99, 1000, "ms"))
	rep.named("screen_addrs_s", addrsS, "1/s")
	rep.Named = append(rep.Named,
		pooledQuantile("screen_wallet_p50_ms", wallet, 0.5, 1000, "ms"),
		pooledQuantile("screen_wallet_p90_ms", wallet, 0.9, 1000, "ms"),
		pooledQuantile("screen_wallet_p99_ms", wallet, 0.99, 1000, "ms"),
		pooledQuantile("screen_exchange_p50_ms", exchange, 0.5, 1000, "ms"),
		pooledQuantile("screen_exchange_p99_ms", exchange, 0.99, 1000, "ms"),
		pooledQuantile("gen.late_p99_ms", res.late, 0.99, 1000, "ms"))
	rep.named("gen.backlog_max", float64(res.backlog), "count")
	rep.note("op = one request at %d/s from %d connections (%d requests after %v of warm-up, timed from when due); saturation: %d requests, %d addresses in %.2fs",
		refRate, screenConns, res.refRequests, warmup, res.satRequests, res.addrs, res.satWall.Seconds())
	if o.Trace {
		screenLayers(rep, e, res, traced)
		if err := probeLayers(rep, o, e.w, e.snap, e.compile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// screenLayers books the traced load's per-layer metrics, and the
// set-up study's stages and chain reads.
func screenLayers(rep *report, e *screenEnv, res, traced *loadResult) {
	hs := traced.handlerStats
	addrs := float64(traced.verdicts)
	rep.layer("rpc.requests", float64(hs.Requests), "count")
	rep.layer("rpc.req_bytes_per_addr", float64(hs.ReqBytes)/addrs, "bytes")
	rep.layer("rpc.resp_bytes_per_addr", float64(hs.RespBytes)/addrs, "bytes")
	rep.layer("rpc.serve_busy_s", hs.Busy.Seconds(), "s")
	rep.layer("gen.late_p99_ms", quantile(traced.late, 0.99)*1000, "ms")
	rep.layer("gen.backlog_max", float64(traced.backlog), "count")
	for name, d := range e.study.stages {
		rep.layer(name+"_s", d.Seconds(), "s")
	}
	chainLayers(rep, e.study.chain, studyStageOrder)
	busy := traced.satBusy.Seconds() / (screenConns * traced.satWall.Seconds())
	rep.layer("trace.coverage", busy, "ratio")
	base := float64(res.addrs) / res.satWall.Seconds()
	tracedRate := float64(traced.addrs) / traced.satWall.Seconds()
	rep.layer("trace.overhead_share", base/tracedRate-1, "ratio")
	rep.note("tracing overhead: traced saturation %.0f addrs/s vs untraced %.0f; chain and stage metrics are the set-up study's",
		tracedRate, base)
}

package main

import (
	"fmt"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/prices"
	"repro/internal/retry"
	"repro/internal/rpc"
	"repro/internal/worldgen"
)

// rpcScale is the chain scale of the study-rpc workload; over loopback
// JSON-RPC a study costs several times what it costs in process.
const rpcScale = 0.01

// runStudyRPC is the study-rpc workload: the same study as study (less
// the §8.2 site hunt), read over loopback JSON-RPC from rpc.NewServer
// through daas.Dial, whose default retry policy is on.
func runStudyRPC(o options) (*report, error) {
	rep := &report{}
	start := time.Now()
	w, gen, err := generateWorld(o.Seed, rpcScale)
	if err != nil {
		return nil, err
	}
	rs := rpc.NewServer(w.Chain, w.Labels)
	h := &countingHandler{h: rs}
	hs := rs.HTTPServer("")
	hs.Handler = h
	srv, err := serveLoopback(hs)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	setup := time.Since(start).Seconds()
	rep.e2e("setup_s", setup, "s")
	rep.layer("worldgen.generate_s", gen.Seconds(), "s")
	opts := studyOptions(rpcScale)

	pass := func(tr *tracer) (*studyResult, error) {
		id := tr.start("study", 0)
		start := time.Now()
		var (
			c   *daas.Client
			cs  *countingSource
			err error
		)
		if tr == nil {
			c, err = daas.Dial(srv.url)
		} else {
			// Untraced passes all run first, so the server-side
			// counters see only traced ones.
			h.on.Store(true)
			c, cs, err = dialCounting(srv.url)
		}
		if err != nil {
			return nil, err
		}
		res, err := studyOnce(c, cs, opts, tr, id)
		if err != nil {
			return nil, err
		}
		tr.end(id)
		return res, res.finish(start)
	}
	untraced, traced, err := measurePasses(o, pass)
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(untraced) + len(traced)
	first := untraced[0]
	deterministicExport(rep, append(untraced, traced...))
	studyChecks(rep, first, len(worldgen.DefaultFamilies()))

	local, err := studyOnce(daas.New(core.LocalSource{Chain: w.Chain}, w.Labels, w.Oracle), nil, opts, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("local reference study: %w", err)
	}
	if err := local.finish(time.Now()); err != nil {
		return nil, err
	}
	ls, ds := local.study.Dataset, first.study.Dataset
	rep.check("table1.matches_local", ls.SeedStats == ds.SeedStats && ls.Stats() == ds.Stats(),
		"seed %+v expanded %+v (local seed %+v expanded %+v)", ds.SeedStats, ds.Stats(), ls.SeedStats, ls.Stats())
	rep.check("families.match_local", len(local.study.Families) == len(first.study.Families),
		"%d families over RPC, %d in process", len(first.study.Families), len(local.study.Families))
	if first.digest != local.digest {
		rep.note("export sha256 over RPC %s differs from in process %s: known defect, the RPC path reorders label sources in the export",
			first.digest, local.digest)
	}

	walls := passSeconds(untraced)
	txs := float64(w.Chain.TxCount())
	p50, p99 := median(walls), quantile(walls, 0.99)
	rep.e2e("units_s", txs/p50, "1/s")
	rep.e2e("op_p50_ms", p50*1000, "ms")
	rep.e2e("op_p99_ms", p99*1000, "ms")
	rep.named("study_s", p50, "s")
	rep.note("op = one study (Dial + StudyWith) over %d chain txs; %d untraced studies, op_p99_ms is the slowest", int(txs), len(walls))
	if o.Trace {
		studyLayers(rep, untraced, traced, walls)
		hs := h.stats()
		n := float64(len(traced))
		rep.layer("rpc.requests", float64(hs.Requests)/n, "count")
		rep.layer("rpc.serve_busy_s", hs.Busy.Seconds()/n, "s")
		rep.layer("rpc.req_bytes", float64(hs.ReqBytes)/n, "bytes")
		rep.layer("rpc.resp_bytes", float64(hs.RespBytes)/n, "bytes")
		last := traced[len(traced)-1].study
		snap, compile := compileSnapshot(last.Dataset, last.Families, nil)
		if err := probeLayers(rep, o, w, snap, compile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// dialCounting does what daas.Dial does, with the counting wrapper
// between the client and the rpc.Client at the base of its stack.
func dialCounting(url string) (*daas.Client, *countingSource, error) {
	rc := rpc.NewClient(url)
	rc.Retry = retry.Default()
	if _, err := rc.BlockNumber(); err != nil {
		return nil, nil, fmt.Errorf("connecting to %s: %w", url, err)
	}
	dir, err := rc.FetchLabels()
	if err != nil {
		return nil, nil, fmt.Errorf("fetching labels: %w", err)
	}
	src, cs := wrapCounting(rc)
	return daas.New(src, dir, prices.New()), cs, nil
}

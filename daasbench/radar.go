package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/integrity"
	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

const (
	// radarScale is the chain scale of the radar workload.
	radarScale = 0.01
	// radarStepEvery is how many blocks arrive between radar steps.
	radarStepEvery = 4
	// radarReorgs is how many reorgs each replay stages.
	radarReorgs = 3
	// readerRate is the paced reader's offered load, in reads per second.
	readerRate = 500
)

// radarExpect is the batch pipeline's answer for the radar's world: the
// replay must end on exactly these exports.
type radarExpect struct {
	export, families []byte
	ds               *core.Dataset
	fams             []*cluster.Family
}

// batchExpect runs the one-shot pipeline and clusterer over the whole
// chain, as loadgen's replay-identity check does.
func batchExpect(w *worldgen.World) (*radarExpect, error) {
	src := core.LocalSource{Chain: w.Chain}
	p := &core.Pipeline{Source: src, Labels: w.Labels}
	ds, err := p.Build()
	if err != nil {
		return nil, fmt.Errorf("batch pipeline: %w", err)
	}
	cl := &cluster.Clusterer{Source: src, Labels: w.Labels}
	fams, err := cl.Cluster(ds)
	if err != nil {
		return nil, fmt.Errorf("batch clusterer: %w", err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return nil, err
	}
	famJSON, err := json.MarshalIndent(fams, "", " ")
	if err != nil {
		return nil, err
	}
	return &radarExpect{export: buf.Bytes(), families: famJSON, ds: ds, fams: fams}, nil
}

// replayResult is one replay of the world through the radar.
type replayResult struct {
	blocks    int
	wall      time.Duration // excludes the staging of reorgs (Follower.Heal)
	steps     []float64     // seconds
	rollbacks []float64     // seconds, steps that rolled back a reorg
	reads     []float64     // seconds, from when each read was due
	late      []float64     // seconds the reader started each read after it was due
	backlog   int
	status    radar.Status
	export    []byte
	families  []byte
	chain     *chainStats
	lagSum    float64
	lagMax    int
	covered   time.Duration
}

// reorgBlocks picks the block heights after which replays stage their
// reorgs, between 10% and 90% of the chain.
func reorgBlocks(seed uint64, blocks uint64) []uint64 {
	rnd := newRand(seed, "reorgs")
	out := make([]uint64, radarReorgs)
	span := blocks * 8 / 10 / radarReorgs
	for i := range out {
		out[i] = blocks/10 + uint64(i)*span + uint64(rnd.intn(int(span)))
	}
	return out
}

// replay streams the world through chain.Follower into a radar built as
// daasctl radar builds it locally (integrity over LocalSource, with
// pins released on rollback), stages reorgs, and runs the paced reader
// against the engine the radar swaps.
func replay(w *worldgen.World, reorgAt []uint64, universe []ethtypes.Address, tr *tracer) (*replayResult, error) {
	runtime.GC() // each replay starts from a collected heap
	f := chain.NewFollower(w.Chain)
	dst := f.Chain()
	reg := obs.NewRegistry()
	var cs *countingSource
	base := core.ChainSource(core.LocalSource{Chain: dst})
	if tr != nil {
		base, cs = wrapCounting(base)
	}
	src := integrity.Wrap(base, integrity.NewQuarantine(reg), reg)
	eng := screen.NewEngine(reg)
	r, err := radar.New(radar.Config{
		Source: src, Blocks: radar.ChainBlocks{Chain: dst}, Labels: w.Labels,
		Engine: eng, Pins: src, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	res := &replayResult{}
	pass := tr.start("radar.replay", 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.reads, res.late, res.backlog = paceReader(eng, universe, stop)
	}()

	var heal time.Duration
	step := func(rollback bool) error {
		if tr != nil {
			st := r.Status()
			lag := int(dst.BlockCount()-1) - int(st.Cursor)
			res.lagSum += float64(lag)
			if lag > res.lagMax {
				res.lagMax = lag
			}
		}
		id := tr.start("radar.step", pass)
		start := time.Now()
		_, err := r.Step()
		d := time.Since(start)
		tr.end(id)
		res.steps = append(res.steps, d.Seconds())
		res.covered += d
		if rollback {
			res.rollbacks = append(res.rollbacks, d.Seconds())
		}
		return err
	}
	next := 0
	start := time.Now()
	for {
		id := tr.start("chain.follow", pass)
		fs := time.Now()
		advanced := 0
		for advanced < radarStepEvery {
			if _, ok := f.Advance(); !ok {
				break
			}
			advanced++
		}
		res.covered += time.Since(fs)
		tr.end(id)
		if advanced == 0 {
			break
		}
		res.blocks += advanced
		if err := step(false); err != nil {
			return nil, err
		}
		if next < len(reorgAt) && dst.BlockCount()-1 >= reorgAt[next] {
			next++
			tip, err := dst.BlockByNumber(dst.BlockCount() - 1)
			if err != nil {
				return nil, err
			}
			f.MineOrphan(tip.Timestamp.Add(13 * time.Second))
			if err := step(false); err != nil {
				return nil, err
			}
			id := tr.start("bench.heal", pass)
			hs := time.Now()
			f.Heal()
			heal += time.Since(hs)
			tr.end(id)
			if err := step(true); err != nil {
				return nil, err
			}
		}
	}
	res.wall = time.Since(start) - heal
	tr.end(pass)
	close(stop)
	wg.Wait()

	res.status = r.Status()
	var buf bytes.Buffer
	if err := r.ExportJSON(&buf); err != nil {
		return nil, err
	}
	res.export = buf.Bytes()
	if res.families, err = json.MarshalIndent(r.Families(), "", " "); err != nil {
		return nil, err
	}
	if cs != nil {
		st := cs.stats()
		res.chain = &st
	}
	return res, nil
}

// paceReader screens one address every 1/readerRate seconds until stop
// closes: an open loop, so each read is timed from when it was due and
// a stalled reader owes every read that fell due meanwhile.
func paceReader(eng *screen.Engine, universe []ethtypes.Address, stop <-chan struct{}) (lat, late []float64, backlog int) {
	interval := time.Second / readerRate
	t0 := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat, late, backlog
		default:
		}
		due := t0.Add(time.Duration(i) * interval)
		sleepUntil(due)
		start := time.Now()
		if owed := int(start.Sub(t0)/interval) - i; owed > backlog {
			backlog = owed
		}
		_, screenSink = eng.Screen(universe[i%len(universe)])
		end := time.Now()
		lat = append(lat, end.Sub(due).Seconds())
		late = append(late, start.Sub(due).Seconds())
	}
}

// readerUniverse is what the paced reader screens: every publicly
// reported phishing address, which the replay progressively lists, and
// as many clean ones, in seeded order.
func readerUniverse(w *worldgen.World, seed uint64) []ethtypes.Address {
	rnd := newRand(seed, "reader")
	phish := w.Labels.AllPhishing()
	out := append([]ethtypes.Address(nil), phish...)
	for range phish {
		out = append(out, cleanAddr(rnd))
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rnd.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runRadar is the radar workload.
func runRadar(o options) (*report, error) {
	rep := &report{}
	w, gen, err := generateWorld(o.Seed, radarScale)
	if err != nil {
		return nil, err
	}
	setup := gen.Seconds()
	rep.e2e("setup_s", setup, "s")
	rep.layer("worldgen.generate_s", gen.Seconds(), "s")
	want, err := batchExpect(w)
	if err != nil {
		return nil, err
	}
	reorgAt := reorgBlocks(o.Seed, w.Chain.BlockCount())
	universe := readerUniverse(w, o.Seed)

	var untraced, traced []*replayResult
	window := o.budget()
	if o.Trace {
		window /= 2
	}
	for start := time.Now(); len(untraced) == 0 || time.Since(start) < window; {
		res, err := replay(w, reorgAt, universe, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, res)
	}
	for start := time.Now(); o.Trace && (len(traced) == 0 || time.Since(start) < window); {
		res, err := replay(w, reorgAt, universe, o.Tracer)
		if err != nil {
			return nil, err
		}
		traced = append(traced, res)
	}

	all := append(append([]*replayResult(nil), untraced...), traced...)
	mismatch, reorgs := 0, 0
	for _, res := range all {
		if !bytes.Equal(res.export, want.export) || !bytes.Equal(res.families, want.families) {
			mismatch++
		}
		if res.status.Reorgs == radarReorgs {
			reorgs++
		}
		rep.Attempted += len(res.steps) + len(res.reads)
	}
	rep.check("radar.equals_batch", mismatch == 0, "%d of %d replays end on the batch pipeline's export and families", len(all)-mismatch, len(all))
	rep.check("radar.reorgs_rolled_back", reorgs == len(all), "%d of %d replays rolled back all %d staged reorgs", reorgs, len(all), radarReorgs)

	var steps, reads, late, rates []float64
	for _, res := range untraced {
		steps = append(steps, res.steps...)
		reads = append(reads, res.reads...)
		late = append(late, res.late...)
		rates = append(rates, float64(res.blocks)/res.wall.Seconds())
	}
	blocksS := median(rates)
	rep.e2e("units_s", blocksS, "1/s")
	rep.e2e("op_p50_ms", quantile(steps, 0.5)*1000, "ms")
	rep.e2e("op_p99_ms", quantile(steps, 0.99)*1000, "ms")
	rep.named("radar_blocks_s", blocksS, "1/s")
	rep.named("radar_step_p50_ms", quantile(steps, 0.5)*1000, "ms")
	rep.named("radar_step_p99_ms", quantile(steps, 0.99)*1000, "ms")
	rep.named("radar_screen_p99_us", quantile(reads, 0.99)*1e6, "us")
	rep.named("gen.late_p99_ms", quantile(late, 0.99)*1000, "ms")
	rep.note("op = one Radar.Step; %d replays of %d blocks, %d steps and %d paced reads at %d/s",
		len(untraced), untraced[0].blocks, len(steps), len(reads), readerRate)
	if o.Trace {
		radarLayers(rep, untraced, traced, blocksS)
		snap, compile := compileSnapshot(want.ds, want.fams, nil)
		if err := probeLayers(rep, o, w, snap, compile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// radarLayers books the traced replays' per-layer metrics.
func radarLayers(rep *report, untraced, traced []*replayResult, blocksS float64) {
	last := traced[len(traced)-1]
	var busy, covered, rates, rollbacks, late, reads []float64
	var lagSum float64
	var lagN, lagMax, backlog int
	for _, res := range traced {
		var sum float64
		for _, s := range res.steps {
			sum += s
		}
		busy = append(busy, sum)
		covered = append(covered, res.covered.Seconds()/res.wall.Seconds())
		rates = append(rates, float64(res.blocks)/res.wall.Seconds())
		rollbacks = append(rollbacks, res.rollbacks...)
		late = append(late, res.late...)
		reads = append(reads, res.reads...)
		lagSum += res.lagSum
		lagN += len(res.steps)
		lagMax = max(lagMax, res.lagMax)
		backlog = max(backlog, res.backlog)
	}
	rep.layer("radar.steps", float64(len(last.steps)), "count")
	rep.layer("radar.swaps", float64(last.status.Swaps), "count")
	rep.layer("radar.reorgs", float64(last.status.Reorgs), "count")
	rep.layer("radar.rollback_ms", median(rollbacks)*1000, "ms")
	rep.layer("radar.step_busy_s", median(busy), "s")
	rep.layer("radar.head_lag_blocks", lagSum/math.Max(1, float64(lagN)), "count")
	rep.layer("radar.head_lag_max_blocks", float64(lagMax), "count")
	rep.layer("radar.read_p99_us", quantile(reads, 0.99)*1e6, "us")
	rep.layer("gen.late_p99_ms", quantile(late, 0.99)*1000, "ms")
	rep.layer("gen.backlog_max", float64(backlog), "count")
	chainLayers(rep, last.chain, nil)
	rep.layer("trace.coverage", median(covered), "ratio")
	traced50 := median(rates)
	rep.layer("trace.overhead_share", blocksS/traced50-1, "ratio")
	rep.note("tracing overhead: traced replay %.1f blocks/s vs untraced %.1f (base: median of %d untraced, %d traced replays)",
		traced50, blocksS, len(untraced), len(traced))
}

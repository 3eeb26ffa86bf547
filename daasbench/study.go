package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/ethtypes"
	"repro/internal/integrity"
	"repro/internal/labels"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
	"repro/internal/worldgen"
)

const (
	// shippedSeed is the world seed cmd/repro ships with.
	shippedSeed = 1910
	// studyScale is the chain scale of the study workload.
	studyScale = 0.05
	// studySites is the phishing-site count of the §8.2 experiment in
	// the study workload (cmd/repro's default is 3300).
	studySites = 1000
)

// pinnedDigests are the SHA-256 digests of the dataset export
// (Dataset.WriteJSON) the study workload must reproduce, by scale and
// world seed.
var pinnedDigests = map[float64]map[uint64]string{
	studyScale: {shippedSeed: "1cf0c714006acb46ef9c9c493040b4c0bbca98b7907ce1edd7c69b4460bac9e0"},
}

// generateWorld builds the simulated chain, labels and prices.
func generateWorld(seed uint64, scale float64) (*worldgen.World, time.Duration, error) {
	cfg := worldgen.DefaultConfig(seed)
	cfg.Scale = scale
	start := time.Now()
	w, err := worldgen.Generate(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("generating world: %w", err)
	}
	return w, time.Since(start), nil
}

// studyOptions are cmd/repro's options at the given scale.
func studyOptions(scale float64) daas.StudyOptions {
	return daas.StudyOptions{
		DatasetEnd:         worldgen.DatasetEnd,
		PrimaryContractTxs: int(float64(measure.MinPrimaryTxs)*scale) + 1,
	}
}

// siteEnv is the §8.2 experiment's pre-built inputs: a site fleet
// served over loopback HTTP, its certificates in a CT log, and the
// toolkit fingerprint corpus.
type siteEnv struct {
	fleet  []*website.Site
	corpus *toolkit.Corpus
	host   *httptest.Server
	ctLog  *httptest.Server
}

func newSiteEnv(seed uint64, n int) (*siteEnv, error) {
	fleet := website.GenerateFleet(website.FleetConfig{Seed: seed, Phishing: n, Benign: n / 3, Bait: n / 20})
	log, err := ct.NewLog()
	if err != nil {
		return nil, fmt.Errorf("creating CT log: %w", err)
	}
	for _, s := range fleet {
		if !s.HTTPS {
			continue
		}
		if _, err := log.Issue([]string{s.Domain}, s.Issued); err != nil {
			return nil, fmt.Errorf("issuing certificate: %w", err)
		}
	}
	return &siteEnv{
		fleet:  fleet,
		corpus: toolkit.BuildCorpus(seed, 867),
		host:   httptest.NewServer(website.NewHost(fleet)),
		ctLog:  httptest.NewServer(log.Handler()),
	}, nil
}

func (e *siteEnv) close() {
	e.host.Close()
	e.ctLog.Close()
}

// hunt runs the §8.2 detector from a fresh CT cursor.
func (e *siteEnv) hunt(reg *obs.Registry) (*sitehunt.Report, error) {
	d := &sitehunt.Detector{
		CT:      ct.NewClient(e.ctLog.URL),
		Crawler: crawler.New(e.host.URL),
		Corpus:  e.corpus,
		Metrics: reg,
	}
	rep, err := d.Run()
	if err != nil {
		return nil, fmt.Errorf("sitehunt: %w", err)
	}
	return rep, nil
}

// falseSites counts detections of domains that are not phishing.
func (e *siteEnv) falseSites(rep *sitehunt.Report) int {
	truth := make(map[string]bool, len(e.fleet))
	for _, s := range e.fleet {
		truth[s.Domain] = s.Phishing
	}
	n := 0
	for _, d := range rep.Detections {
		if !truth[d.Domain] {
			n++
		}
	}
	return n
}

// studyResult is what one study pass produced, reduced to what the
// checks compare.
type studyResult struct {
	study  *daas.Study
	digest string
	wall   time.Duration
	stages map[string]time.Duration
	chain  *chainStats
	// sites and siteWall are the study workload's §8.2 run.
	sites    *sitehunt.Report
	siteWall time.Duration
}

func exportDigest(ds *core.Dataset) (string, error) {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("exporting dataset: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// studyOnce runs one study on c. Untraced (cs == nil) it is one
// daas.Client.StudyWith call, as cmd/repro makes it. Traced, the same
// steps run one public call at a time, each in a span, and cs (the
// counting wrapper at the base of c's stack) attributes reads to them.
func studyOnce(c *daas.Client, cs *countingSource, opts daas.StudyOptions, tr *tracer, parent int) (*studyResult, error) {
	reg := obs.NewRegistry()
	c.Metrics = reg
	res := &studyResult{}
	if cs == nil {
		st, err := c.StudyWith(opts)
		if err != nil {
			return nil, err
		}
		res.study = st
	} else {
		st, stages, err := stagedStudy(c, cs, reg, opts, tr, parent)
		if err != nil {
			return nil, err
		}
		res.study, res.stages = st, stages
		stats := cs.stats()
		res.chain = &stats
	}
	return res, nil
}

// finish stamps the pass's wall time, then the export digest (outside
// the timed interval).
func (res *studyResult) finish(start time.Time) error {
	res.wall = time.Since(start)
	d, err := exportDigest(res.study.Dataset)
	res.digest = d
	return err
}

// deterministicExport checks that every pass exported the same dataset.
func deterministicExport(rep *report, rs []*studyResult) {
	differ := 0
	for _, r := range rs {
		if r.digest != rs[0].digest {
			differ++
		}
	}
	rep.check("export.deterministic", differ == 0, "%d passes, %d differ; export sha256 %s", len(rs), differ, rs[0].digest)
}

// stagedStudy performs daas.Client.StudyWith step by step through the
// client's public calls, timing each stage in a span.
func stagedStudy(c *daas.Client, cs *countingSource, reg *obs.Registry, opts daas.StudyOptions,
	tr *tracer, parent int) (*daas.Study, map[string]time.Duration, error) {
	stages := make(map[string]time.Duration)
	step := func(name string, fn func() error) error {
		cs.setStage(name)
		start := time.Now()
		err := tr.do(name, parent, fn)
		stages[name] = time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	out := &daas.Study{}
	var corpus *measure.Corpus
	err := step("core.build", func() (err error) {
		out.Dataset, err = c.BuildDataset()
		return err
	})
	if err == nil {
		err = step("core.validate", func() (err error) {
			out.Validation, err = c.Validate(out.Dataset)
			return err
		})
	}
	if err == nil {
		err = step("cluster.cluster", func() (err error) {
			out.Families, err = c.Cluster(out.Dataset)
			return err
		})
	}
	if err == nil {
		err = step("measure.corpus", func() (err error) {
			// StudyWith reads through the client's shared integrity
			// layer; this one shares its quarantine, and its reads and
			// checks are the same.
			src := integrity.Wrap(core.NewInstrumentedSource(c.Source(), reg), c.Quarantine(), reg)
			an := &measure.Analyzer{Source: src, Oracle: c.Oracle(), Labels: c.Labels()}
			corpus, err = an.BuildCorpus(out.Dataset)
			return err
		})
	}
	if err == nil {
		err = step("measure.analyses", func() error {
			out.Totals = corpus.Totals()
			out.Victims = corpus.Victims()
			out.Operators = corpus.Operators(opts.DatasetEnd)
			out.Affiliates = corpus.Affiliates()
			out.Ratios = corpus.RatioDistribution()
			out.FamilyRows = corpus.FamilyTable(out.Families, opts.PrimaryContractTxs)
			if dir := c.Labels(); dir != nil {
				out.EtherscanCoverage = corpus.LabelCoverage(func(a ethtypes.Address) bool {
					return dir.Has(a, labels.SourceEtherscan)
				})
			}
			return nil
		})
	}
	cs.setStage("other")
	return out, stages, err
}

// minCoverage is the share of a traced study's wall time its stage
// spans must cover; less means an untimed gap between stages.
const minCoverage = 0.95

// studyStageOrder lists the traced study's stages in run order.
var studyStageOrder = []string{"core.build", "core.validate", "cluster.cluster", "measure.corpus", "measure.analyses"}

// studyChecks asserts the paper-level invariants of one study.
func studyChecks(rep *report, res *studyResult, wantFamilies int) {
	fp := -1
	if v := res.study.Validation; v != nil {
		fp = len(v.FalsePositives)
	}
	rep.check("validation.zero_false_positives", fp == 0, "§5.2 false positives: %d", fp)
	names := make(map[string]bool)
	for _, f := range res.study.Families {
		names[f.Name] = true
	}
	rep.check("cluster.nine_families", len(res.study.Families) == wantFamilies && len(names) == wantFamilies,
		"%d families recovered (%d distinct names), want %d", len(res.study.Families), len(names), wantFamilies)
}

// runStudy is the study workload: the paper pipeline as cmd/repro runs
// it, on a world generated in setup.
func runStudy(o options) (*report, error) {
	rep := &report{}
	start := time.Now()
	w, gen, err := generateWorld(o.Seed, studyScale)
	if err != nil {
		return nil, err
	}
	sites, err := newSiteEnv(o.Seed, studySites)
	if err != nil {
		return nil, err
	}
	defer sites.close()
	setup := time.Since(start).Seconds()
	rep.e2e("setup_s", setup, "s")
	rep.layer("worldgen.generate_s", gen.Seconds(), "s")
	opts := studyOptions(studyScale)
	base := core.LocalSource{Chain: w.Chain}
	wantFamilies := len(worldgen.DefaultFamilies())

	pass := func(tr *tracer) (*studyResult, error) {
		id := tr.start("study", 0)
		start := time.Now()
		var cs *countingSource
		src := core.ChainSource(base)
		if tr != nil {
			src, cs = wrapCounting(base)
		}
		res, err := studyOnce(daas.New(src, w.Labels, w.Oracle), cs, opts, tr, id)
		if err != nil {
			return nil, err
		}
		siteStart := time.Now()
		err = tr.do("sitehunt.run", id, func() (err error) {
			res.sites, err = sites.hunt(obs.NewRegistry())
			return err
		})
		if err != nil {
			return nil, err
		}
		res.siteWall = time.Since(siteStart)
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
	if pin, ok := pinnedDigests[studyScale][o.Seed]; ok {
		rep.check("export.pinned_digest", first.digest == pin, "seed %d pinned %s", o.Seed, pin)
	} else {
		rep.note("no pinned export digest for seed %d; pinned seeds are checked, every seed is checked for determinism", o.Seed)
	}
	studyChecks(rep, first, wantFamilies)
	falseSites := sites.falseSites(first.sites)
	rep.check("sitehunt.zero_false_positives", falseSites == 0 && first.sites.Detected() > 0,
		"%d phishing sites detected, %d false", first.sites.Detected(), falseSites)

	walls := passSeconds(untraced)
	txs := float64(w.Chain.TxCount())
	p50, p99 := median(walls), quantile(walls, 0.99)
	rep.e2e("units_s", txs/p50, "1/s")
	rep.e2e("op_p50_ms", p50*1000, "ms")
	rep.e2e("op_p99_ms", p99*1000, "ms")
	rep.named("study_s", p50, "s")
	rep.note("op = one study (StudyWith + sitehunt) over %d chain txs; %d untraced studies, op_p99_ms is the slowest", int(txs), len(walls))
	if o.Trace {
		studyLayers(rep, untraced, traced, walls)
		sitesLayers(rep, traced)
		last := traced[len(traced)-1]
		snap, compile := compileSnapshot(last.study.Dataset, last.study.Families, last.sites.PhishingDomains())
		if err := probeLayers(rep, o, w, snap, compile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measurePasses runs passes for the run's window. Untraced runs spend it
// all on untraced passes; traced runs spend half on untraced passes and
// half on traced ones, so the two can be compared. Each side gets at
// least one pass, and each pass starts from a collected heap.
func measurePasses(o options, pass func(*tracer) (*studyResult, error)) (untraced, traced []*studyResult, err error) {
	window := o.budget()
	if o.Trace {
		window /= 2
	}
	for start := time.Now(); len(untraced) == 0 || time.Since(start) < window; {
		runtime.GC()
		res, err := pass(nil)
		if err != nil {
			return untraced, traced, err
		}
		untraced = append(untraced, res)
	}
	if !o.Trace {
		return untraced, nil, nil
	}
	for start := time.Now(); len(traced) == 0 || time.Since(start) < window; {
		runtime.GC()
		res, err := pass(o.Tracer)
		if err != nil {
			return untraced, traced, err
		}
		traced = append(traced, res)
	}
	return untraced, traced, nil
}

func passSeconds(rs []*studyResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall.Seconds()
	}
	return out
}

// studyLayers books the traced study's stage times, chain reads,
// coverage and tracing overhead.
func studyLayers(rep *report, untraced, traced []*studyResult, walls []float64) {
	last := traced[len(traced)-1]
	tracedWalls := passSeconds(traced)
	base := median(walls)
	tw := median(tracedWalls)
	var covered []float64
	for _, r := range traced {
		var sum time.Duration
		for _, d := range r.stages {
			sum += d
		}
		sum += r.siteWall
		covered = append(covered, sum.Seconds()/r.wall.Seconds())
	}
	for _, st := range studyStageOrder {
		var ds []float64
		for _, r := range traced {
			ds = append(ds, r.stages[st].Seconds())
		}
		rep.layer(st+"_s", median(ds), "s")
	}
	chainLayers(rep, last.chain, studyStageOrder)
	cov := median(covered)
	rep.layer("trace.coverage", cov, "ratio")
	rep.check("trace.stages_cover_study", cov >= minCoverage,
		"stage spans cover %.1f%% of the traced study's wall time (want >= %.0f%%)", 100*cov, 100*minCoverage)
	rep.layer("trace.overhead_share", tw/base-1, "ratio")
	rep.note("tracing overhead: traced study %.3fs vs untraced %.3fs (base: median of %d untraced, %d traced studies)",
		tw, base, len(untraced), len(traced))
}

// chainLayers books the counting wrapper's totals and per-stage reads.
func chainLayers(rep *report, st *chainStats, stages []string) {
	rep.layer("chain.tx_reads", float64(st.TxReads), "count")
	rep.layer("chain.receipt_reads", float64(st.ReceiptReads), "count")
	rep.layer("chain.other_reads", float64(st.OtherReads), "count")
	rep.layer("chain.unique_txs", float64(st.UniqueTxs), "count")
	perUnique := 0.0
	if st.UniqueTxs > 0 {
		perUnique = float64(st.TxReads) / float64(st.UniqueTxs)
	}
	rep.layer("chain.reads_per_unique_tx", perUnique, "ratio")
	rep.layer("chain.busy_s", st.Busy.Seconds(), "s")
	for _, stage := range stages {
		v := st.ByStage[stage]
		rep.layer("chain."+stage+".tx_reads", float64(v[0]), "count")
		rep.layer("chain."+stage+".receipt_reads", float64(v[1]), "count")
	}
}

// sitesLayers books the §8.2 detector's time and funnel counts.
func sitesLayers(rep *report, traced []*studyResult) {
	var ds []float64
	for _, r := range traced {
		ds = append(ds, r.siteWall.Seconds())
	}
	last := traced[len(traced)-1].sites
	rep.layer("sitehunt.run_s", median(ds), "s")
	rep.layer("sitehunt.certs", float64(last.CertsSeen), "count")
	rep.layer("sitehunt.crawled", float64(last.Crawled), "count")
}

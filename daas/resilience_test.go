package daas_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/rpc"
)

// quickPolicy retries without real sleeps, keeping the matrix fast.
func quickPolicy(reg *obs.Registry) *retry.Policy {
	return &retry.Policy{
		MaxAttempts: 6,
		Metrics:     reg,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

func exportWith(t *testing.T, src core.ChainSource, configure func(*daas.Client)) []byte {
	t.Helper()
	c := daas.New(src, world.Labels, world.Oracle)
	if configure != nil {
		configure(c)
	}
	ds, err := c.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultMatrixBuildIsByteIdentical runs the snowball build under
// several seeded transient-fault schedules, with the retry policy
// between the fault injector and the pipeline. Every faulted run must
// converge to the fault-free export byte for byte — transient faults
// cost wall-clock, never data.
func TestFaultMatrixBuildIsByteIdentical(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	if len(clean) == 0 {
		t.Fatal("empty clean export")
	}
	for _, seed := range []uint64{1, 2, 3} {
		reg := obs.NewRegistry()
		inj := faults.NewInjector(faults.Plan{Seed: seed, Rate: 0.05}, reg)
		src := faults.WrapSource(core.LocalSource{Chain: world.Chain}, inj)
		got := exportWith(t, src, func(c *daas.Client) {
			c.RetryPolicy = quickPolicy(reg)
			c.CacheSize = 1 << 12
			c.Concurrency = 4
			c.Metrics = reg
		})
		if !bytes.Equal(got, clean) {
			t.Errorf("seed %d: faulted export differs from clean build (%d vs %d bytes)", seed, len(got), len(clean))
		}
		if inj.Faults() == 0 {
			t.Errorf("seed %d: schedule injected no faults; the matrix tested nothing", seed)
		}
	}
}

// TestFaultedCheckpointResumeThroughClient exercises the full wiring a
// CLI run uses: a build with fault injection and checkpointing dies on
// a planted fatal fault; a second Client with -resume semantics
// finishes the build to the byte-identical export.
func TestFaultedCheckpointResumeThroughClient(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	path := filepath.Join(t.TempDir(), "daas.ckpt")

	// Count ops to plant the kill late in the run.
	counter := faults.NewInjector(faults.Plan{Seed: 9}, nil)
	exportWith(t, faults.WrapSource(core.LocalSource{Chain: world.Chain}, counter), nil)
	kill := counter.Ops() - 1

	inj := faults.NewInjector(faults.Plan{Seed: 9, Rate: 0.02, FatalAfterOps: kill}, nil)
	src := faults.WrapSource(core.LocalSource{Chain: world.Chain}, inj)
	c := daas.New(src, world.Labels, world.Oracle)
	c.RetryPolicy = quickPolicy(nil)
	c.CheckpointPath = path
	if _, err := c.BuildDataset(); err == nil {
		t.Fatal("build survived its planted fatal fault")
	}

	got := exportWith(t, core.LocalSource{Chain: world.Chain}, func(c *daas.Client) {
		c.CheckpointPath = path
		c.Resume = true
	})
	if !bytes.Equal(got, clean) {
		t.Errorf("resumed export differs from clean build (%d vs %d bytes)", len(got), len(clean))
	}
}

// corruptionKinds are the data-mangling fault flavors: the read
// succeeds, but the record is wrong.
var corruptionKinds = []faults.Kind{faults.KindCorruptField, faults.KindTruncateLogs, faults.KindStaleReorg}

// TestCorruptionMatrixBuildIsByteIdentical runs the snowball build
// under seeded response corruption. Corrupted responses are errors the
// transport cannot see — only the integrity layer can. Every corrupted
// run must (a) complete without aborting, (b) quarantine the garbage
// with reason codes, and (c) still export byte-identically to the
// clean build: corruption costs re-fetches, never data.
func TestCorruptionMatrixBuildIsByteIdentical(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	if len(clean) == 0 {
		t.Fatal("empty clean export")
	}
	for _, seed := range []uint64{1, 2, 3} {
		reg := obs.NewRegistry()
		inj := faults.NewInjector(faults.Plan{Seed: seed, Rate: 0.05, Kinds: corruptionKinds}, reg)
		src := faults.WrapSource(core.LocalSource{Chain: world.Chain}, inj)
		var client *daas.Client
		got := exportWith(t, src, func(c *daas.Client) {
			c.CacheSize = 1 << 12
			c.Concurrency = 4
			c.Metrics = reg
			client = c
		})
		if !bytes.Equal(got, clean) {
			t.Errorf("seed %d: corrupted export differs from clean build (%d vs %d bytes)", seed, len(got), len(clean))
		}
		if inj.Faults() == 0 {
			t.Errorf("seed %d: schedule corrupted nothing; the matrix tested nothing", seed)
		}
		q := client.Quarantine()
		if q.Total() == 0 {
			t.Errorf("seed %d: %d corruptions injected but none quarantined", seed, inj.Faults())
		}
		for key, n := range q.Counts() {
			if n <= 0 {
				t.Errorf("seed %d: non-positive quarantine count for %q", seed, key)
			}
		}
		if client.Manifest(nil).Clean() {
			t.Errorf("seed %d: corrupted run reports a clean manifest", seed)
		}
	}

	// The clean run, by contrast, must report a clean manifest — the
	// -strict contract.
	var cleanClient *daas.Client
	exportWith(t, core.LocalSource{Chain: world.Chain}, func(c *daas.Client) { cleanClient = c })
	if m := cleanClient.Manifest(nil); !m.Clean() {
		t.Errorf("clean run reports a dirty manifest: %+v", m)
	}
}

// TestQuarantinedCheckpointResumeRoundTrip kills a corrupted,
// checkpointing build mid-run and resumes it with a clean source. The
// resumed run must reproduce the clean export AND still carry the
// quarantine records and coverage the interrupted run accumulated —
// resume never launders away evidence of past corruption.
func TestQuarantinedCheckpointResumeRoundTrip(t *testing.T) {
	clean := exportWith(t, core.LocalSource{Chain: world.Chain}, nil)
	path := filepath.Join(t.TempDir(), "daas.ckpt")

	// Count ops under the same corruption plan to plant the kill late.
	counter := faults.NewInjector(faults.Plan{Seed: 11, Rate: 0.05, Kinds: corruptionKinds}, nil)
	exportWith(t, faults.WrapSource(core.LocalSource{Chain: world.Chain}, counter), nil)
	kill := counter.Ops() - 1

	inj := faults.NewInjector(faults.Plan{Seed: 11, Rate: 0.05, Kinds: corruptionKinds, FatalAfterOps: kill}, nil)
	src := faults.WrapSource(core.LocalSource{Chain: world.Chain}, inj)
	c := daas.New(src, world.Labels, world.Oracle)
	c.RetryPolicy = quickPolicy(nil)
	c.CheckpointPath = path
	if _, err := c.BuildDataset(); err == nil {
		t.Fatal("build survived its planted fatal fault")
	}
	if c.Quarantine().Total() == 0 {
		t.Fatal("interrupted run quarantined nothing; the round trip tests nothing")
	}

	var resumed *daas.Client
	got := exportWith(t, core.LocalSource{Chain: world.Chain}, func(c *daas.Client) {
		c.CheckpointPath = path
		c.Resume = true
		resumed = c
	})
	if !bytes.Equal(got, clean) {
		t.Errorf("resumed export differs from clean build (%d vs %d bytes)", len(got), len(clean))
	}
	if resumed.Quarantine().Total() == 0 {
		t.Error("resume discarded the checkpointed quarantine")
	}
	if resumed.Manifest(nil).Clean() {
		t.Error("resumed run reports a clean manifest despite restored quarantine")
	}
}

// TestRetryLivesAtOneLayer gates the retry layering of a dialled
// client: Dial gives the transport its own policy, and a RetryPolicy
// set on top must replace it, not stack over it. Against a server that
// answers every request with 503 once dialled, the failing build costs
// exactly MaxAttempts wire attempts, not their square.
func TestRetryLivesAtOneLayer(t *testing.T) {
	var failing atomic.Bool
	var hits atomic.Int64
	chainSrv := rpc.NewServer(world.Chain, world.Labels)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			hits.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		chainSrv.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c, err := daas.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	policy := quickPolicy(nil)
	c.RetryPolicy = policy
	failing.Store(true)
	if _, err := c.BuildDataset(); err == nil {
		t.Fatal("build against an always-503 server succeeded")
	}
	if got := hits.Load(); got != int64(policy.MaxAttempts) {
		t.Errorf("failing build made %d wire attempts, want MaxAttempts = %d", got, policy.MaxAttempts)
	}
}

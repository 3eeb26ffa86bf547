package screen_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/obs"
	"repro/internal/screen"
)

func addr(b byte) ethtypes.Address {
	var a ethtypes.Address
	for i := range a {
		a[i] = b
	}
	return a
}

func sampleRecords() []screen.Record {
	return []screen.Record{
		{Address: addr(1), Kind: screen.KindContract, Reason: screen.ReasonContract, Family: "Inferno", StaticFlagged: true},
		{Address: addr(2), Kind: screen.KindOperator, Reason: screen.ReasonOperator, Family: "Inferno", Tainted: true},
		{Address: addr(3), Kind: screen.KindAffiliate, Reason: screen.ReasonAffiliate},
		{Address: addr(4), Kind: screen.KindManual, Reason: "reported by victim"},
	}
}

func buildSample(order []int) *screen.Snapshot {
	recs := sampleRecords()
	b := screen.NewBuilder()
	for _, i := range order {
		b.Add(recs[i])
	}
	b.AddDomain("Evil-Drainer.example")
	b.AddDomain("claim.airdrop.example.")
	b.AddDomain("mint.example:443")
	return b.Build()
}

func TestLookupRoundTrip(t *testing.T) {
	snap := buildSample([]int{0, 1, 2, 3})
	for _, want := range sampleRecords() {
		got, ok := snap.Lookup(want.Address)
		if !ok {
			t.Fatalf("Lookup(%s) = not found", want.Address)
		}
		if got != want {
			t.Errorf("Lookup(%s) = %+v, want %+v", want.Address, got, want)
		}
	}
	if _, ok := snap.Lookup(addr(9)); ok {
		t.Error("unlisted address reported as listed")
	}
	if snap.Len() != 4 {
		t.Errorf("Len() = %d, want 4", snap.Len())
	}
	if snap.DomainCount() != 3 {
		t.Errorf("DomainCount() = %d, want 3", snap.DomainCount())
	}
}

func TestLookupDomainNormalizes(t *testing.T) {
	snap := buildSample([]int{0})
	for _, query := range []string{
		"evil-drainer.example",
		"EVIL-DRAINER.example",
		"evil-drainer.example.",
		"evil-drainer.example:8443",
		"claim.airdrop.example",
		"mint.example",
	} {
		if !snap.LookupDomain(query) {
			t.Errorf("LookupDomain(%q) = false, want true", query)
		}
	}
	if snap.LookupDomain("benign.example") {
		t.Error("unlisted domain reported as listed")
	}
}

func TestNormalizeDomain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"evil.example", "evil.example"},
		{"EVIL.Example", "evil.example"},
		{"evil.example.", "evil.example"},
		{"evil.example:443", "evil.example"},
		{"EVIL.example.:8080", "evil.example"},
		{"xn--brger-kva.example", "xn--brger-kva.example"}, // punycode passes through
		{"bürger.example", "bürger.example"},               // raw IDN passes through
		{"", ""},
		{".", ""},
		// Bracketed IPv6 hosts must match their unbracketed form.
		{"[2001:db8::1]:443", "2001:db8::1"},
		{"[2001:db8::1]", "2001:db8::1"},
		{"[::1]:8080", "::1"},
		{"[::1]", "::1"},
		{"[2001:DB8::A]:443", "2001:db8::a"},
		// Unbracketed IPv6 literals keep every colon: only a lone colon
		// is a port separator.
		{"2001:db8::1", "2001:db8::1"},
		{"::1", "::1"},
		// Malformed bracket forms pass through rather than guessing.
		{"[2001:db8::1]:443:extra", "[2001:db8::1]:443:extra"},
		{"[2001:db8::1", "[2001:db8::1"},
	}
	for _, c := range cases {
		if got := screen.NormalizeDomain(c.in); got != c.want {
			t.Errorf("NormalizeDomain(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNormalizeDomainZeroAlloc pins the no-allocation contract for the
// lookup path: canonical input returns the same string, and every
// strip (port, root dot, brackets) is pure slicing.
func TestNormalizeDomainZeroAlloc(t *testing.T) {
	inputs := []string{
		"evil.example",
		"evil.example:443",
		"evil.example.",
		"2001:db8::1",
		"[2001:db8::1]:443",
		"[::1]",
	}
	for _, in := range inputs {
		if allocs := testing.AllocsPerRun(100, func() {
			_ = screen.NormalizeDomain(in)
		}); allocs != 0 {
			t.Errorf("NormalizeDomain(%q) allocates %.1f times per run, want 0", in, allocs)
		}
	}
}

// TestSnapshotBytesDeterministic is the snapshot determinism contract:
// the same logical inputs serialize to identical bytes no matter the
// insertion order.
func TestSnapshotBytesDeterministic(t *testing.T) {
	a, err := buildSample([]int{0, 1, 2, 3}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSample([]int{3, 1, 0, 2}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot bytes differ across insertion orders")
	}
}

func TestSnapshotMarshalRoundTrip(t *testing.T) {
	snap := buildSample([]int{2, 0, 3, 1})
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := screen.UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range sampleRecords() {
		got, ok := back.Lookup(want.Address)
		if !ok || got != want {
			t.Errorf("after round trip Lookup(%s) = %+v (%v), want %+v", want.Address, got, ok, want)
		}
	}
	if !back.LookupDomain("evil-drainer.example") {
		t.Error("domain lost in round trip")
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-marshaled snapshot differs from original bytes")
	}
	if _, err := screen.UnmarshalSnapshot([]byte("not a snapshot")); err == nil {
		t.Error("UnmarshalSnapshot accepted garbage")
	}
	if _, err := screen.UnmarshalSnapshot(data[:len(data)-1]); err == nil {
		t.Error("UnmarshalSnapshot accepted truncated input")
	}
}

func TestCompileFromPipelineOutputs(t *testing.T) {
	ds := core.NewDataset()
	now := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	ds.Contracts[addr(1)] = &core.ContractRecord{Address: addr(1), FirstSeen: now, LastSeen: now, StaticFlagged: true}
	ds.Operators[addr(2)] = &core.AccountRecord{Address: addr(2), FirstSeen: now, LastSeen: now}
	ds.Affiliates[addr(3)] = &core.AccountRecord{Address: addr(3), FirstSeen: now, LastSeen: now}
	fams := []*cluster.Family{{
		Name:       "Angel",
		Tainted:    true,
		Operators:  []ethtypes.Address{addr(2)},
		Contracts:  []ethtypes.Address{addr(1)},
		Affiliates: []ethtypes.Address{addr(3)},
	}}
	snap := screen.Compile(ds, fams, []string{"Phish.Example."})

	rec, ok := snap.Lookup(addr(1))
	if !ok || rec.Kind != screen.KindContract || rec.Reason != screen.ReasonContract ||
		rec.Family != "Angel" || !rec.Tainted || !rec.StaticFlagged {
		t.Errorf("contract record = %+v (%v)", rec, ok)
	}
	rec, ok = snap.Lookup(addr(2))
	if !ok || rec.Kind != screen.KindOperator || rec.Reason != screen.ReasonOperator || rec.Family != "Angel" {
		t.Errorf("operator record = %+v (%v)", rec, ok)
	}
	rec, ok = snap.Lookup(addr(3))
	if !ok || rec.Kind != screen.KindAffiliate || rec.Reason != screen.ReasonAffiliate {
		t.Errorf("affiliate record = %+v (%v)", rec, ok)
	}
	if !snap.LookupDomain("phish.example") {
		t.Error("compiled snapshot missing phishing domain")
	}

	// Compiling the same inputs twice yields identical bytes.
	a, _ := snap.MarshalBinary()
	b, _ := screen.Compile(ds, fams, []string{"Phish.Example."}).MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("Compile is not deterministic")
	}
}

// TestScreenZeroAlloc is the hot-path allocation gate from the
// roadmap's p99 < 5ms budget: a single-address screen, a domain screen
// and a batch into a sized buffer perform zero heap allocations,
// instruments included.
func TestScreenZeroAlloc(t *testing.T) {
	eng := screen.NewEngine(obs.NewRegistry())
	eng.Swap(buildSample([]int{0, 1, 2, 3}))
	hit, miss := addr(1), addr(9)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := eng.Screen(hit); !ok {
			t.Fatal("hit not found")
		}
	}); n != 0 {
		t.Errorf("Screen(hit) allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := eng.Screen(miss); ok {
			t.Fatal("miss found")
		}
	}); n != 0 {
		t.Errorf("Screen(miss) allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if !eng.ScreenDomain("evil-drainer.example") {
			t.Fatal("domain not found")
		}
	}); n != 0 {
		t.Errorf("ScreenDomain(canonical) allocates %.1f objects/op, want 0", n)
	}
	batch := make([]ethtypes.Address, 1024)
	for i := range batch {
		batch[i] = addr(byte(i % 8))
	}
	verdicts := make([]screen.Verdict, 0, len(batch))
	if n := testing.AllocsPerRun(100, func() {
		verdicts = eng.ScreenBatch(verdicts, batch)
	}); n != 0 {
		t.Errorf("ScreenBatch into a sized buffer allocates %.1f objects/op, want 0", n)
	}
}

// TestEngineSwapUnderConcurrentReads drives lock-free readers against
// continuous snapshot swaps; under -race this is the zero-lock
// correctness gate, and every verdict must match one of the published
// snapshots (here: all identical, so verdicts never change).
func TestEngineSwapUnderConcurrentReads(t *testing.T) {
	reg := obs.NewRegistry()
	eng := screen.NewEngine(reg)
	eng.Swap(buildSample([]int{0, 1, 2, 3}))

	done := make(chan struct{})
	go func() {
		// Continuous rebuild-and-swap churn while the readers run.
		defer close(done)
		for i := 0; i < 200; i++ {
			eng.Swap(buildSample([]int{3, 2, 1, 0}))
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				rec, ok := eng.Screen(addr(2))
				if !ok || rec.Reason != screen.ReasonOperator || !rec.Tainted {
					t.Errorf("verdict changed under swap: %+v (%v)", rec, ok)
					return
				}
				if _, ok := eng.Screen(addr(9)); ok {
					t.Error("unlisted address listed under swap")
					return
				}
				if !eng.ScreenDomain("mint.example") {
					t.Error("domain verdict changed under swap")
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done

	snap := reg.Snapshot()
	if s := snap.Find("daas_screen_snapshot_swaps_total"); s == nil || s.Counter < 201 {
		t.Errorf("swap counter = %+v, want >= 201", s)
	}
	if s := snap.Find("daas_screen_requests_total", "listed"); s == nil || s.Counter == 0 {
		t.Error("no listed verdicts recorded")
	}
	if s := snap.Find("daas_screen_duration_seconds"); s == nil || s.Hist == nil || s.Hist.Count == 0 {
		t.Error("no screening latency recorded")
	}
}

// TestEngineBeforeFirstSwap: a fresh engine lists nothing instead of
// crashing.
func TestEngineBeforeFirstSwap(t *testing.T) {
	eng := screen.NewEngine(nil)
	if _, ok := eng.Screen(addr(1)); ok {
		t.Error("empty engine listed an address")
	}
	if eng.ScreenDomain("evil.example") {
		t.Error("empty engine listed a domain")
	}
	if eng.Snapshot() != nil {
		t.Error("expected nil snapshot before first swap")
	}
}

// TestScreenBatch: verdicts come back in input order, clean ones
// carrying only their address, and the batch is booked once — one
// batch-latency observation, the verdict counts added in one step.
func TestScreenBatch(t *testing.T) {
	reg := obs.NewRegistry()
	eng := screen.NewEngine(reg)
	eng.Swap(buildSample([]int{0, 1, 2, 3}))
	addrs := []ethtypes.Address{addr(9), addr(1), addr(3), addr(9), addr(1)}
	got := eng.ScreenBatch(nil, addrs)
	if len(got) != len(addrs) {
		t.Fatalf("%d verdicts for %d addresses", len(got), len(addrs))
	}
	for i, v := range got {
		want, ok := buildSample([]int{0, 1, 2, 3}).Lookup(addrs[i])
		if !ok {
			want = screen.Record{Address: addrs[i]}
		}
		if v.Listed != ok || v.Record != want {
			t.Errorf("verdict %d = %+v, want %+v (listed %v)", i, v, want, ok)
		}
	}

	snap := reg.Snapshot()
	if s := snap.Find("daas_screen_requests_total", "listed"); s == nil || s.Counter != 3 {
		t.Errorf("listed count = %+v, want 3", s)
	}
	if s := snap.Find("daas_screen_requests_total", "clean"); s == nil || s.Counter != 2 {
		t.Errorf("clean count = %+v, want 2", s)
	}
	if s := snap.Find("daas_screen_batch_duration_seconds"); s == nil || s.Hist == nil || s.Hist.Count != 1 {
		t.Errorf("batch latency = %+v, want one observation", s)
	}
	if s := snap.Find("daas_screen_duration_seconds"); s != nil && s.Hist != nil && s.Hist.Count != 0 {
		t.Errorf("single-lookup latency observed %d times by a batch, want 0", s.Hist.Count)
	}

	if got := eng.ScreenBatch(got, nil); len(got) != 0 {
		t.Errorf("empty batch = %+v", got)
	}
	if got := screen.NewEngine(nil).ScreenBatch(nil, addrs); len(got) != len(addrs) || got[1].Listed {
		t.Errorf("engine before first swap = %+v, want all clean", got)
	}
}

// TestScreenBatchOneSnapshotUnderSwap: while another goroutine swaps
// between two snapshots that disagree on every address, each batch's
// verdicts all come from one of them. Under -race this is also the
// zero-lock gate for the batch path.
func TestScreenBatchOneSnapshotUnderSwap(t *testing.T) {
	const n = 512
	addrs := make([]ethtypes.Address, n)
	build := func(family string) *screen.Snapshot {
		b := screen.NewBuilder()
		for i := range addrs {
			b.Add(screen.Record{Address: addrs[i], Kind: screen.KindContract, Reason: screen.ReasonContract, Family: family})
		}
		return b.Build()
	}
	for i := range addrs {
		addrs[i][0], addrs[i][1], addrs[i][19] = byte(i>>8), byte(i), 0xbb
	}
	snaps := []*screen.Snapshot{build("Inferno"), build("Angel")}
	eng := screen.NewEngine(obs.NewRegistry())
	eng.Swap(snaps[0])

	stop := make(chan struct{})
	swapped := make(chan int)
	go func() {
		swaps := 0
		defer func() { swapped <- swaps }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			swaps++
			eng.Swap(snaps[swaps%2])
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []screen.Verdict
			for i := 0; i < 300; i++ {
				buf = eng.ScreenBatch(buf, addrs)
				for j, v := range buf {
					if !v.Listed || v.Family != buf[0].Family {
						t.Errorf("batch %d verdict %d = %+v, verdict 0 family %q: batch mixed snapshots", i, j, v, buf[0].Family)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if swaps := <-swapped; swaps == 0 {
		t.Error("no swaps ran during the batches")
	}
}

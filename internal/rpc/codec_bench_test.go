package rpc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/screen"
)

// exchangeBatch is the size of an exchange's screening batch.
const exchangeBatch = 1024

// batchFixture builds an n-address daas_screenBatch workload over an
// engine whose snapshot lists every even-indexed address (with a
// family for every fourth), so half the verdicts carry the full record.
func batchFixture(n int) (*screen.Engine, []ethtypes.Address) {
	kinds := []screen.Kind{screen.KindContract, screen.KindOperator, screen.KindAffiliate}
	reasons := []string{screen.ReasonContract, screen.ReasonOperator, screen.ReasonAffiliate}
	families := []string{"Inferno", "Angel", "Pink", "Venom"}
	b := screen.NewBuilder()
	addrs := make([]ethtypes.Address, n)
	for i := range addrs {
		a := &addrs[i]
		a[0], a[1], a[2], a[19] = 0xda, byte(i>>8), byte(i), 0x5a
		if i%2 != 0 {
			continue
		}
		rec := screen.Record{Address: *a, Kind: kinds[i%3], Reason: reasons[i%3], Tainted: i%6 == 0, StaticFlagged: i%10 == 0}
		if i%4 == 0 {
			rec.Family = families[(i/4)%len(families)]
		}
		b.Add(rec)
	}
	eng := screen.NewEngine(obs.NewRegistry())
	eng.Swap(b.Build())
	return eng, addrs
}

// screenBatchBody is the daas_screenBatch request body the client
// sends for addrs.
func screenBatchBody(tb testing.TB, addrs []ethtypes.Address) []byte {
	tb.Helper()
	params := make([]string, len(addrs))
	for i, a := range addrs {
		params[i] = a.Hex()
	}
	body, err := json.Marshal(map[string]any{"jsonrpc": "2.0", "id": 1, "method": "daas_screenBatch", "params": params})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkScreenBatchRoundTrip times one exchange-sized
// daas_screenBatch end to end: client encode, loopback HTTP, server
// decode, engine, server encode and client decode.
func BenchmarkScreenBatchRoundTrip(b *testing.B) {
	eng, addrs := batchFixture(exchangeBatch)
	srv := httptest.NewServer(&rpc.Server{Screen: eng, Metrics: obs.NewRegistry()})
	defer srv.Close()
	client := rpc.NewClient(srv.URL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := client.ScreenBatch(addrs)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(addrs) {
			b.Fatalf("%d verdicts for %d addresses", len(got), len(addrs))
		}
	}
}

// BenchmarkScreenBatchServe times the server half alone: ServeHTTP on
// an in-process recorder for the same exchange-sized request.
func BenchmarkScreenBatchServe(b *testing.B) {
	eng, addrs := batchFixture(exchangeBatch)
	srv := &rpc.Server{Screen: eng, Metrics: obs.NewRegistry()}
	body := screenBatchBody(b, addrs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// maxServeAllocs bounds the heap allocations of one exchange-sized
// daas_screenBatch through ServeHTTP: request plumbing, envelope and
// instruments, but nothing per screened address.
const maxServeAllocs = 100

// TestScreenBatchServeAllocs is the server's allocation gate: a
// 1,024-address batch, half of it listed, answered through ServeHTTP
// on an httptest recorder.
func TestScreenBatchServeAllocs(t *testing.T) {
	eng, addrs := batchFixture(exchangeBatch)
	srv := &rpc.Server{Screen: eng, Metrics: obs.NewRegistry()}
	body := screenBatchBody(t, addrs)
	rec := httptest.NewRecorder()
	serve := func() {
		rec.Body.Reset()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	serve()
	var verdicts struct {
		Result []struct {
			Listed bool `json:"listed"`
		} `json:"result"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &verdicts); err != nil || len(verdicts.Result) != exchangeBatch {
		t.Fatalf("response: %d verdicts, %v", len(verdicts.Result), err)
	}
	listed := 0
	for _, v := range verdicts.Result {
		if v.Listed {
			listed++
		}
	}
	if listed != exchangeBatch/2 {
		t.Fatalf("%d of %d listed, want half", listed, exchangeBatch)
	}
	if n := testing.AllocsPerRun(50, serve); n > maxServeAllocs {
		t.Errorf("ServeHTTP allocates %.0f objects per %d-address batch, want <= %d", n, exchangeBatch, maxServeAllocs)
	} else {
		t.Logf("ServeHTTP allocates %.0f objects per %d-address batch", n, exchangeBatch)
	}
}

// maxRoundTripAllocs bounds the heap allocations of one exchange-sized
// daas_screenBatch round trip over loopback, counting client,
// transport and server together.
const maxRoundTripAllocs = 200

// TestScreenBatchRoundTripAllocs is the client's allocation gate: a
// 1,024-address batch, half of it listed, screened through
// Client.ScreenBatch against a loopback server.
func TestScreenBatchRoundTripAllocs(t *testing.T) {
	eng, addrs := batchFixture(exchangeBatch)
	srv := httptest.NewServer(&rpc.Server{Screen: eng, Metrics: obs.NewRegistry()})
	defer srv.Close()
	client := rpc.NewClient(srv.URL)
	client.Metrics = obs.NewRegistry()
	roundTrip := func() {
		got, err := client.ScreenBatch(addrs)
		if err != nil || len(got) != len(addrs) {
			t.Fatalf("%d verdicts for %d addresses: %v", len(got), len(addrs), err)
		}
	}
	roundTrip()
	if n := testing.AllocsPerRun(50, roundTrip); n > maxRoundTripAllocs {
		t.Errorf("round trip allocates %.0f objects per %d-address batch, want <= %d", n, exchangeBatch, maxRoundTripAllocs)
	} else {
		t.Logf("round trip allocates %.0f objects per %d-address batch", n, exchangeBatch)
	}
}

// countingServer serves h over loopback for the rest of the test and
// counts the connections clients open to it.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	conns := new(atomic.Int64)
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, conns
}

// TestClientReusesConnection is the keep-alive gate. A client that
// leaves any of a response body unread makes net/http drop the
// connection, so sequential calls must ride a single one: screening
// batches of every size, and a large generic result.
func TestClientReusesConnection(t *testing.T) {
	const calls = 200
	for _, n := range []int{4, 64, exchangeBatch} {
		eng, addrs := batchFixture(n)
		srv, conns := countingServer(t, &rpc.Server{Screen: eng})
		client := rpc.NewClient(srv.URL)
		for i := 0; i < calls; i++ {
			if got, err := client.ScreenBatch(addrs); err != nil || len(got) != n {
				t.Fatalf("%d verdicts for %d addresses: %v", len(got), n, err)
			}
		}
		if got := conns.Load(); got != 1 {
			t.Errorf("%d ScreenBatch calls of %d addresses opened %d connections, want 1", calls, n, got)
		}
	}

	dir := labels.New()
	const nLabels = 500
	for i := 0; i < nLabels; i++ {
		var a ethtypes.Address
		a[0], a[1], a[19] = 0x1a, byte(i>>8), byte(i)
		dir.Add(labels.Label{Address: a, Source: labels.SourceChainabuse, Category: labels.CategoryPhishing, Name: fmt.Sprintf("Fake_Phishing%d", i)})
	}
	srv, conns := countingServer(t, &rpc.Server{Labels: dir})
	client := rpc.NewClient(srv.URL)
	for i := 0; i < calls; i++ {
		got, err := client.FetchLabels()
		if err != nil || got.Count() != nLabels {
			t.Fatalf("fetched labels: %v", err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d FetchLabels calls opened %d connections, want 1", calls, got)
	}
}

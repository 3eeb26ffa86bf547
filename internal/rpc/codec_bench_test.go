package rpc_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ethtypes"
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

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/integrity"
	"repro/internal/keccak"
	"repro/internal/obs"
	"repro/internal/rlp"
	"repro/internal/rpc"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// Layer probes run at the end of every traced run, on the run's own
// world and screening snapshot. Each times a fixed amount of work a few
// times over and reports the median.

const (
	probeReps   = 5
	probeSample = 2048
)

// compileSnapshot compiles a dataset, its families and phishing domains
// into a screening snapshot, as cmd/repro -screen-snapshot does, and
// returns it with the median compile time.
func compileSnapshot(ds *core.Dataset, fams []*cluster.Family, domains []string) (*screen.Snapshot, time.Duration) {
	var snap *screen.Snapshot
	var times []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		snap = screen.Compile(ds, fams, domains)
		times = append(times, time.Since(start).Seconds())
	}
	return snap, time.Duration(median(times) * float64(time.Second))
}

// probeLayers runs every layer probe and books its metrics.
func probeLayers(rep *report, o options, w *worldgen.World, snap *screen.Snapshot, compile time.Duration) error {
	txs, recs, hashes, err := sampleRecords(w.Chain, o.Seed)
	if err != nil {
		return err
	}
	rep.layer("keccak.mb_s", keccakProbe(txs), "MB/s")
	rep.layer("integrity.check_us", integrityProbe(hashes, txs, recs), "us")
	if err := probeScreen(rep, snap, compile, o.Seed); err != nil {
		return err
	}
	return probeRPC(rep, snap, o.Seed)
}

// sampleRecords draws up to probeSample transactions with their
// receipts from seeded block positions.
func sampleRecords(c *chain.Chain, seed uint64) ([]*chain.Transaction, []*chain.Receipt, []ethtypes.Hash, error) {
	rnd := newRand(seed, "records")
	var (
		txs    []*chain.Transaction
		recs   []*chain.Receipt
		hashes []ethtypes.Hash
	)
	blocks := c.BlockCount()
	for tries := 0; len(txs) < probeSample && tries < 50*probeSample; tries++ {
		b, err := c.BlockByNumber(uint64(rnd.intn(int(blocks))))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sampling block: %w", err)
		}
		for _, h := range b.TxHashes {
			tx, err := c.Transaction(h)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("sampling tx: %w", err)
			}
			rec, err := c.Receipt(h)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("sampling receipt: %w", err)
			}
			txs, recs, hashes = append(txs, tx), append(recs, rec), append(hashes, h)
		}
	}
	if len(txs) == 0 {
		return nil, nil, nil, fmt.Errorf("no transactions to sample")
	}
	return txs, recs, hashes, nil
}

// txEncoding is the byte string a transaction's hash covers
// (chain.Transaction.RecomputeHash).
func txEncoding(tx *chain.Transaction) []byte {
	to := []byte{}
	if tx.To != nil {
		to = tx.To[:]
	}
	var p []byte
	p = rlp.AppendUint(p, tx.Nonce)
	p = rlp.AppendString(p, tx.From[:])
	p = rlp.AppendString(p, to)
	p = rlp.AppendBig(p, tx.Value.Big())
	p = rlp.AppendString(p, tx.Data)
	p = rlp.AppendUint(p, tx.GasLimit)
	return append(rlp.AppendList(nil, len(p)), p...)
}

var keccakSink [32]byte

// keccakProbe is keccak.Sum256 throughput on the sample's transaction
// encodings, in MB/s.
func keccakProbe(txs []*chain.Transaction) float64 {
	inputs := make([][]byte, len(txs))
	total := 0
	for i, tx := range txs {
		inputs[i] = txEncoding(tx)
		total += len(inputs[i])
	}
	var rates []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		for _, in := range inputs {
			keccakSink = keccak.Sum256(in)
		}
		rates = append(rates, float64(total)/1e6/time.Since(start).Seconds())
	}
	return median(rates)
}

var checkSink integrity.Reason

// integrityProbe is the cost of admitting one record pair:
// CheckTransaction + CheckReceipt + CheckPair, in microseconds.
func integrityProbe(hs []ethtypes.Hash, txs []*chain.Transaction, recs []*chain.Receipt) float64 {
	var per []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		for i, h := range hs {
			checkSink = integrity.CheckTransaction(h, txs[i])
			checkSink = integrity.CheckReceipt(h, recs[i])
			checkSink = integrity.CheckPair(txs[i], recs[i])
		}
		per = append(per, time.Since(start).Seconds()*1e6/float64(len(hs)))
	}
	return median(per)
}

// screenAddrs draws n addresses, half listed in snap and half clean.
func screenAddrs(snap *screen.Snapshot, rnd *splitmix, n int) []ethtypes.Address {
	recs := snap.Records()
	out := make([]ethtypes.Address, n)
	for i := range out {
		if i%2 == 0 && len(recs) > 0 {
			out[i] = recs[rnd.intn(len(recs))].Address
			continue
		}
		out[i] = cleanAddr(rnd)
	}
	return out
}

// cleanAddr is a random address under a prefix no generated account
// uses.
func cleanAddr(rnd *splitmix) ethtypes.Address {
	var a ethtypes.Address
	a[0] = 0xEE
	for j := 1; j < len(a); j += 8 {
		v := rnd.next()
		for k := 0; k < 8 && j+k < len(a); k++ {
			a[j+k] = byte(v >> (8 * k))
		}
	}
	return a
}

var screenSink bool

// probeScreen books bare Snapshot.Lookup against the instrumented
// Engine.Screen the servers use, the compile time and the snapshot's
// serialized size.
func probeScreen(rep *report, snap *screen.Snapshot, compile time.Duration, seed uint64) error {
	addrs := screenAddrs(snap, newRand(seed, "screen-probe"), 4096)
	eng := screen.NewEngine(obs.NewRegistry())
	eng.Swap(snap)
	const loops = 50
	var bare, inst []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		for l := 0; l < loops; l++ {
			for _, a := range addrs {
				_, screenSink = snap.Lookup(a)
			}
		}
		bare = append(bare, float64(time.Since(start).Nanoseconds())/float64(loops*len(addrs)))
		start = time.Now()
		for l := 0; l < loops; l++ {
			for _, a := range addrs {
				_, screenSink = eng.Screen(a)
			}
		}
		inst = append(inst, float64(time.Since(start).Nanoseconds())/float64(loops*len(addrs)))
	}
	lookup, engine := median(bare), median(inst)
	rep.layer("screen.lookup_ns", lookup, "ns")
	rep.layer("screen.engine_ns", engine, "ns")
	rep.layer("screen.instrumented_ratio", engine/lookup, "ratio")
	rep.layer("screen.compile_ms", compile.Seconds()*1000, "ms")
	data, err := snap.MarshalBinary()
	if err != nil {
		return fmt.Errorf("serializing snapshot: %w", err)
	}
	rep.layer("screen.snapshot_bytes", float64(len(data)), "bytes")
	rep.layer("screen.snapshot_records", float64(snap.Len()), "count")
	return nil
}

// batchClasses are the daas_screenBatch sizes the RPC probe decomposes:
// a wallet's few addresses, a mid-size batch, and an exchange's 1k.
var batchClasses = []int{4, 64, 1024}

// probeRPC decomposes daas_screenBatch for each batch class: the same
// request bytes timed on the wire (rpc.Client.ScreenBatch over
// loopback), in process (rpc.Server.ServeHTTP on a recorder), and as
// the bare Engine.Screen loop. serve - engine is the server's codec and
// dispatch; wire - serve is the client and the transport.
func probeRPC(rep *report, snap *screen.Snapshot, seed uint64) error {
	eng := screen.NewEngine(obs.NewRegistry())
	eng.Swap(snap)
	rs := &rpc.Server{Screen: eng, Metrics: obs.NewRegistry()}
	h := &countingHandler{h: rs}
	h.on.Store(true)
	h.capture.Store(true)
	hs := rs.HTTPServer("")
	hs.Handler = h
	srv, err := serveLoopback(hs)
	if err != nil {
		return err
	}
	defer srv.close()
	client := rpc.NewClient(srv.url)
	client.HTTPClient = newHTTPClient(1)
	rnd := newRand(seed, "rpc-probe")
	for _, n := range batchClasses {
		reps := 4096 / n
		if reps < 16 {
			reps = 16
		}
		var wire, serve, engine []float64
		var reqBytes, respBytes int64
		for i := 0; i < reps; i++ {
			addrs := screenAddrs(snap, rnd, n)
			h.reset()
			start := time.Now()
			got, err := client.ScreenBatch(addrs)
			wire = append(wire, time.Since(start).Seconds()*1e6)
			if err != nil {
				return fmt.Errorf("rpc probe: %w", err)
			}
			if len(got) != n {
				return fmt.Errorf("rpc probe: %d verdicts for %d addresses", len(got), n)
			}
			st := h.stats()
			reqBytes += st.ReqBytes
			respBytes += st.RespBytes
			body := h.last()

			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			start = time.Now()
			rs.ServeHTTP(rec, req)
			serve = append(serve, time.Since(start).Seconds()*1e6)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("rpc probe: in-process replay answered %d", rec.Code)
			}

			start = time.Now()
			for _, a := range addrs {
				_, screenSink = eng.Screen(a)
			}
			engine = append(engine, time.Since(start).Seconds()*1e6)
		}
		wireUS, serveUS, engineUS := median(wire), median(serve), median(engine)
		p := fmt.Sprintf("rpc.b%d.", n)
		rep.layer(p+"wire_us", wireUS, "us")
		rep.layer(p+"serve_us", serveUS, "us")
		rep.layer(p+"engine_us", engineUS, "us")
		rep.layer(p+"server_codec_us", serveUS-engineUS, "us")
		rep.layer(p+"client_transport_us", wireUS-serveUS, "us")
		rep.layer(p+"req_bytes_per_addr", float64(reqBytes)/float64(reps*n), "bytes")
		rep.layer(p+"resp_bytes_per_addr", float64(respBytes)/float64(reps*n), "bytes")
		rep.note("rpc batch %d: engine %s, server codec %s, client+transport %s of wire time",
			n, pct(engineUS, wireUS), pct(serveUS-engineUS, wireUS), pct(wireUS-serveUS, wireUS))
	}
	return nil
}

package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/screen"
)

// Server serves a chain (and optionally a label directory) over
// JSON-RPC 2.0. It implements http.Handler; mount it wherever.
type Server struct {
	// Chain backs the eth_*/repro_* methods; nil (a screening-only
	// server) answers them with an error instead of crashing.
	Chain  *chain.Chain
	Labels *labels.Directory
	// Screen, when set, serves the daas_screen* methods off the engine's
	// current snapshot.
	Screen *screen.Engine
	// Radar, when set, serves the daas_radar* methods off the live
	// detection daemon.
	Radar RadarBackend
	// Metrics, when set, records server-side per-method request counts,
	// errors, and latency (daas_rpc_server_* metric names).
	Metrics *obs.Registry
	// Limits bounds body size, batch length, concurrency, and request
	// deadlines; the zero value applies production defaults.
	Limits Limits

	metricsOnce sync.Once
	sm          serverMetrics

	// gate is the admission semaphore, sized lazily from Limits on the
	// first request.
	gateOnce sync.Once
	gate     chan struct{}
}

// serverMetrics caches the server's instruments; all nil (no-op) when
// Metrics is unset.
type serverMetrics struct {
	requests    *obs.CounterVec
	errors      *obs.CounterVec
	latency     *obs.HistogramVec
	panics      *obs.Counter
	shed        *obs.Counter
	writeErrors *obs.Counter
	inflight    *obs.Gauge
}

var noopServerMetrics serverMetrics

func (s *Server) metrics() *serverMetrics {
	if s.Metrics == nil {
		return &noopServerMetrics
	}
	s.metricsOnce.Do(func() {
		s.sm = serverMetrics{
			requests:    s.Metrics.CounterVec("daas_rpc_server_requests_total", "JSON-RPC requests served by method", "method"),
			errors:      s.Metrics.CounterVec("daas_rpc_server_request_errors_total", "JSON-RPC requests answered with an error by method", "method"),
			latency:     s.Metrics.HistogramVec("daas_rpc_server_request_duration_seconds", "server-side request handling latency by method", obs.DefDurationBuckets, "method"),
			panics:      s.Metrics.Counter("daas_rpc_server_panics_total", "handler panics recovered into codeInternal responses"),
			shed:        s.Metrics.Counter("daas_rpc_server_shed_total", "requests shed by the admission gate with codeOverloaded"),
			writeErrors: s.Metrics.Counter("daas_rpc_server_write_errors_total", "responses dropped because the client connection failed mid-write"),
			inflight:    s.Metrics.Gauge("daas_rpc_server_inflight", "requests currently admitted and being handled"),
		}
	})
	return &s.sm
}

// knownMethods bounds the method label cardinality: requests for
// anything else are counted under "unknown" so a garbage-spraying
// client cannot grow the registry without limit.
var knownMethods = map[string]bool{
	"eth_blockNumber": true, "eth_getBlockByNumber": true,
	"eth_getTransactionByHash": true, "repro_getReceipt": true,
	"eth_getBalance": true, "eth_getCode": true, "eth_call": true,
	"repro_getStorageAt": true, "repro_isContract": true,
	"repro_transactionsOf": true, "repro_getLogs": true,
	"repro_labels": true, "daas_screen": true,
	"daas_screenBatch": true, "daas_screenDomain": true,
	"daas_radarStatus": true, "daas_radarUpdates": true,
}

// maxScreenBatch caps one daas_screenBatch request. Anything larger is
// rejected with invalid-params instead of tying up the handler; the
// client splits oversized workloads into multiple requests.
const maxScreenBatch = 4096

func metricMethod(m string) string {
	if knownMethods[m] {
		return m
	}
	return "unknown"
}

// NewServer returns a handler for the given chain.
func NewServer(c *chain.Chain, l *labels.Directory) *Server {
	return &Server{Chain: c, Labels: l}
}

// ServeHTTP implements http.Handler. A body whose first token is a
// JSON array is a spec-compliant batch (JSON-RPC 2.0 §6): every
// element is dispatched and the responses come back as an array, in
// request order.
//
// The handler is the overload front door: GET /healthz and /readyz
// bypass the JSON-RPC machinery; everything else passes the admission
// gate (shed with CodeOverloaded + Retry-After when full), a body-size
// cap, per-connection read/write deadlines against slow-loris clients,
// and a per-request context deadline. A panic anywhere in handling is
// recovered into a codeInternal envelope instead of killing the
// connection's serve goroutine.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && (r.URL.Path == "/healthz" || r.URL.Path == "/readyz") {
		s.serveHealth(w, r)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics().panics.Inc()
			s.writeError(w, http.StatusInternalServerError,
				&rpcError{Code: codeInternal, Message: fmt.Sprintf("internal error: %v", rec)})
		}
	}()

	release, admitted := s.admit()
	if !admitted {
		s.shed(w)
		return
	}
	defer release()

	ctx := r.Context()
	if rt := s.Limits.requestTimeout(); rt > 0 {
		deadline := time.Now().Add(rt)
		// Bound the network reads/writes too: a client trickling its
		// body (slow loris) is evicted at the request deadline instead
		// of holding an admission slot; errors mean the transport does
		// not support per-request deadlines (e.g. test recorders) and
		// the context deadline alone applies.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(deadline)
		_ = rc.SetWriteDeadline(deadline.Add(writeGrace))
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(*buf, w, r, s.Limits.maxBodyBytes())
	*buf = body
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				&rpcError{Code: codeInvalidRequest, Message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
			return
		}
		s.writeError(w, http.StatusOK, &rpcError{Code: codeParse, Message: err.Error()})
		return
	}
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		s.serveBatch(ctx, w, trimmed)
		return
	}
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusOK, &rpcError{Code: codeParse, Message: err.Error()})
		return
	}
	// The request owns copies of everything it needs from the body, so
	// the buffer is free to carry the response.
	*buf = append(s.handle(ctx, body[:0], req), '\n')
	s.write(w, http.StatusOK, *buf)
}

// readBody drains one request body into dst[:0] under the configured
// cap (0 = no cap). The MaxBytesReader also arms the server to close
// the connection when the cap trips, so an attacker cannot keep
// streaming.
func readBody(dst []byte, w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := r.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	}
	return readAll(dst, body)
}

// readAll reads r to EOF into dst[:0], growing it as needed.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	b := dst[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// serveBatch answers one JSON array of requests. Per the spec, a batch
// that fails to parse or is empty earns a single error object, not an
// array; one exceeding Limits.MaxBatch is rejected the same way before
// any element is dispatched. Once the request deadline expires, the
// remaining elements are answered with CodeTimeout envelopes rather
// than silently holding the admission slot.
func (s *Server) serveBatch(ctx context.Context, w http.ResponseWriter, body []byte) {
	var reqs []request
	if err := json.Unmarshal(body, &reqs); err != nil {
		s.writeError(w, http.StatusOK, &rpcError{Code: codeParse, Message: err.Error()})
		return
	}
	if len(reqs) == 0 {
		s.writeError(w, http.StatusOK, &rpcError{Code: codeInvalidRequest, Message: "empty batch"})
		return
	}
	if max := s.Limits.maxBatch(); max > 0 && len(reqs) > max {
		s.writeError(w, http.StatusOK, &rpcError{
			Code: codeInvalidRequest, Message: fmt.Sprintf("batch of %d exceeds limit %d", len(reqs), max),
		})
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	out := append((*buf)[:0], '[')
	for i, req := range reqs {
		if i > 0 {
			out = append(out, ',')
		}
		out = s.handle(ctx, out, req)
	}
	*buf = append(out, ']', '\n')
	s.write(w, http.StatusOK, *buf)
}

// handle dispatches one request and appends its response envelope to
// dst. Every request — batched or not — is booked against the
// server-side instruments here, so daas_rpc_server_requests_total
// counts batch items individually. A panicking handler yields
// codeInternal for that element only, and an expired context yields
// CodeTimeout without dispatching.
//
// The envelope bytes are those Encoder.Encode wrote for the response
// struct: results from dispatch are json.Marshal output, already
// compact and HTML-escaped, and the daas_screen verdicts are appended
// in that same form.
func (s *Server) handle(ctx context.Context, dst []byte, req request) (out []byte) {
	sm := s.metrics()
	method := metricMethod(req.Method)
	sm.requests.With(method).Inc()
	start := time.Now()
	mark := len(dst)
	failed := true
	defer func() {
		if rec := recover(); rec != nil {
			sm.panics.Inc()
			out = appendError(dst[:mark], req.ID, &rpcError{Code: codeInternal, Message: fmt.Sprintf("internal error: %v", rec)})
		}
		sm.latency.With(method).ObserveDuration(time.Since(start))
		if failed {
			sm.errors.With(method).Inc()
		}
	}()
	if ctx.Err() != nil {
		return appendError(dst, req.ID, deadlineError())
	}
	if req.Method == "daas_screen" || req.Method == "daas_screenBatch" {
		res, rpcErr := s.appendScreen(ctx, appendResultHead(dst, req.ID), req.Method, req.Params)
		if rpcErr != nil {
			return appendError(dst[:mark], req.ID, rpcErr)
		}
		failed = false
		return append(res, '}')
	}
	result, rpcErr := s.dispatch(ctx, req.Method, req.Params)
	if rpcErr != nil {
		return appendError(dst, req.ID, rpcErr)
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return appendError(dst, req.ID, &rpcError{Code: codeInternal, Message: err.Error()})
	}
	failed = false
	return appendResult(dst, req.ID, raw)
}

// writeError writes one error envelope (id 0) with the given HTTP
// status.
func (s *Server) writeError(w http.ResponseWriter, status int, e *rpcError) {
	s.write(w, status, append(appendError(nil, 0, e), '\n'))
}

// write sends a finished response body with the given HTTP status,
// counting clients that vanished mid-write instead of dropping the
// error on the floor.
func (s *Server) write(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	if _, err := w.Write(body); err != nil {
		s.metrics().writeErrors.Inc()
	}
}

func deadlineError() *rpcError {
	return &rpcError{Code: codeTimeout, Message: "request deadline exceeded"}
}

func (s *Server) dispatch(ctx context.Context, method string, params json.RawMessage) (any, *rpcError) {
	if method == "daas_screenDomain" {
		return s.screenDomain(params)
	}
	if result, rpcErr, handled := s.dispatchRadar(ctx, method, params); handled {
		return result, rpcErr
	}
	if s.Chain == nil && method != "repro_labels" {
		return nil, &rpcError{Code: codeInternal, Message: "method " + method + " needs a chain backend"}
	}
	switch method {
	case "eth_blockNumber":
		return s.Chain.BlockCount() - 1, nil

	case "eth_getBlockByNumber":
		var args []uint64
		if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
			return nil, invalidParams("want [blockNumber]")
		}
		b, err := s.Chain.BlockByNumber(args[0])
		if err != nil {
			return nil, &rpcError{Code: codeInvalidParams, Message: err.Error()}
		}
		out := blockJSON{
			Number:    b.Number,
			Timestamp: b.Timestamp.Unix(),
			Hash:      b.Hash().Hex(),
			Parent:    b.Parent.Hex(),
		}
		for _, h := range b.TxHashes {
			out.TxHashes = append(out.TxHashes, h.Hex())
		}
		return out, nil

	case "eth_getTransactionByHash":
		h, rpcErr := hashParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		tx, err := s.Chain.Transaction(h)
		if err != nil {
			return nil, &rpcError{Code: codeInvalidParams, Message: err.Error()}
		}
		return toTxJSON(tx), nil

	case "repro_getReceipt":
		h, rpcErr := hashParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		r, err := s.Chain.Receipt(h)
		if err != nil {
			return nil, &rpcError{Code: codeInvalidParams, Message: err.Error()}
		}
		return toReceiptJSON(r), nil

	case "eth_getBalance":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		return s.Chain.BalanceOf(a).String(), nil

	case "eth_getCode":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		return fmt.Sprintf("0x%x", s.Chain.CodeAt(a)), nil

	case "eth_call":
		var args []string
		if err := json.Unmarshal(params, &args); err != nil || len(args) != 2 {
			return nil, invalidParams("want [to, data]")
		}
		to, err := ethtypes.HexToAddress(args[0])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		raw, err := decodeHexBlob(args[1])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		ret, err := s.Chain.StaticCall(to, raw)
		if err != nil {
			return nil, &rpcError{Code: codeInternal, Message: err.Error()}
		}
		return fmt.Sprintf("0x%x", ret), nil

	case "repro_getStorageAt":
		var args []string
		if err := json.Unmarshal(params, &args); err != nil || len(args) != 2 {
			return nil, invalidParams("want [address, key]")
		}
		a, err := ethtypes.HexToAddress(args[0])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		k, err := ethtypes.HexToHash(args[1])
		if err != nil {
			return nil, invalidParams(err.Error())
		}
		v := s.Chain.StorageAt(a, k)
		return v.Hex(), nil

	case "repro_isContract":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		return s.Chain.IsContract(a), nil

	case "repro_transactionsOf":
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return nil, rpcErr
		}
		hashes := s.Chain.TransactionsOf(a)
		out := make([]string, len(hashes))
		for i, h := range hashes {
			out[i] = h.Hex()
		}
		return out, nil

	case "repro_getLogs":
		var args struct {
			FromBlock uint64 `json:"fromBlock"`
			ToBlock   uint64 `json:"toBlock"`
			Address   string `json:"address,omitempty"`
			Topic0    string `json:"topic0,omitempty"`
		}
		if err := json.Unmarshal(params, &args); err != nil {
			return nil, invalidParams(err.Error())
		}
		var addrFilter *ethtypes.Address
		if args.Address != "" {
			a, err := ethtypes.HexToAddress(args.Address)
			if err != nil {
				return nil, invalidParams(err.Error())
			}
			addrFilter = &a
		}
		var topicFilter *ethtypes.Hash
		if args.Topic0 != "" {
			t, err := ethtypes.HexToHash(args.Topic0)
			if err != nil {
				return nil, invalidParams(err.Error())
			}
			topicFilter = &t
		}
		entries := s.Chain.FilterLogs(args.FromBlock, args.ToBlock, addrFilter, topicFilter)
		out := make([]logEntryJSON, 0, len(entries))
		for _, e := range entries {
			lj := logJSON{Address: e.Address.Hex(), Data: fmt.Sprintf("0x%x", e.Data)}
			for _, tp := range e.Topics {
				lj.Topics = append(lj.Topics, tp.Hex())
			}
			out = append(out, logEntryJSON{
				Log: lj, TxHash: e.TxHash.Hex(), BlockNumber: e.BlockNumber, Timestamp: e.Timestamp.Unix(),
			})
		}
		return out, nil

	case "repro_labels":
		if s.Labels == nil {
			return []labelJSON{}, nil
		}
		// Every label a source carries on an address that source
		// reports as phishing, each address's labels in the
		// directory's own order, so a client re-adding them in wire
		// order rebuilds the same per-address order.
		var out []labelJSON
		for _, addr := range s.Labels.AllPhishing() {
			ls := s.Labels.Of(addr)
			for _, l := range ls {
				if reportsPhishing(ls, l.Source) {
					out = append(out, toLabelJSON(l))
				}
			}
		}
		return out, nil

	default:
		return nil, &rpcError{Code: codeMethodNotFound, Message: "unknown method " + method}
	}
}

// reportsPhishing reports whether src, one of labels.AllSources, tags
// the address carrying labels ls as phishing.
func reportsPhishing(ls []labels.Label, src labels.Source) bool {
	if !slices.Contains(labels.AllSources, src) {
		return false
	}
	return slices.ContainsFunc(ls, func(l labels.Label) bool {
		return l.Source == src && l.Category == labels.CategoryPhishing
	})
}

// appendScreen appends the result of a daas_screen or daas_screenBatch
// request to dst, straight from the engine's records. daas_screenBatch
// takes a flat address array in one request — the high-throughput
// path — and answers all of it off one snapshot; single daas_screen
// requests also ride the generic JSON-RPC array-batch transport.
func (s *Server) appendScreen(ctx context.Context, dst []byte, method string, params json.RawMessage) ([]byte, *rpcError) {
	if s.Screen == nil {
		return dst, screenUnavailable()
	}
	if method == "daas_screen" {
		a, rpcErr := addressParam(params)
		if rpcErr != nil {
			return dst, rpcErr
		}
		rec, ok := s.Screen.Screen(a)
		rec.Address = a
		return appendVerdict(dst, &screen.Verdict{Record: rec, Listed: ok}, s.snapshotAge()), nil
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	var rpcErr *rpcError
	if sc.addrs, rpcErr = decodeAddresses(sc.addrs, params); rpcErr != nil {
		return dst, rpcErr
	}
	if ctx.Err() != nil {
		return dst, deadlineError()
	}
	sc.verdicts = s.Screen.ScreenBatch(sc.verdicts, sc.addrs)
	return appendVerdicts(dst, sc.verdicts, s.snapshotAge()), nil
}

// screenDomain answers daas_screenDomain off the engine's current
// snapshot.
func (s *Server) screenDomain(params json.RawMessage) (any, *rpcError) {
	if s.Screen == nil {
		return nil, screenUnavailable()
	}
	var args []string
	if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
		return nil, invalidParams("want [domain]")
	}
	return s.Screen.ScreenDomain(args[0]), nil
}

// snapshotAge is the whole seconds since the engine's snapshot was
// last confirmed fresh, stamped into every screening verdict. A
// healthy upstream keeps it at 0 (sub-second freshness rounds down),
// so the field only appears on the wire while serving degraded.
func (s *Server) snapshotAge() uint64 {
	age := s.Screen.Age()
	if age <= 0 {
		return 0
	}
	return uint64(age / time.Second)
}

func screenUnavailable() *rpcError {
	return &rpcError{Code: codeInternal, Message: "screening unavailable: no engine configured"}
}

func invalidParams(msg string) *rpcError {
	return &rpcError{Code: codeInvalidParams, Message: msg}
}

func hashParam(params json.RawMessage) (ethtypes.Hash, *rpcError) {
	var args []string
	if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
		return ethtypes.Hash{}, invalidParams("want [hash]")
	}
	h, err := ethtypes.HexToHash(args[0])
	if err != nil {
		return ethtypes.Hash{}, invalidParams(err.Error())
	}
	return h, nil
}

func addressParam(params json.RawMessage) (ethtypes.Address, *rpcError) {
	var args []string
	if err := json.Unmarshal(params, &args); err != nil || len(args) != 1 {
		return ethtypes.Address{}, invalidParams("want [address]")
	}
	a, err := ethtypes.HexToAddress(args[0])
	if err != nil {
		return ethtypes.Address{}, invalidParams(err.Error())
	}
	return a, nil
}

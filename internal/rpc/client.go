package rpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/ethtypes"
	"repro/internal/integrity"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/retry"
)

// Client talks JSON-RPC to a Server and satisfies core.ChainSource.
type Client struct {
	// URL is the server endpoint.
	URL string
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
	// Metrics, when set, records per-method request counts, errors, and
	// latency histograms (daas_rpc_* metric names).
	Metrics *obs.Registry
	// Retry, when set, retries transient request failures (timeouts,
	// 5xx, 429, connection resets) under the policy. Nil performs each
	// request exactly once.
	Retry *retry.Policy
	// LabelErrorBudget caps skipped entries per label source before
	// FetchLabels fails the whole ingestion (0 = default 64).
	LabelErrorBudget int

	nextID      atomic.Int64
	metricsOnce sync.Once
	cm          clientMetrics

	labelMu        sync.Mutex
	labelRejects   map[string]int64 // "source/reason" -> skipped entries
	labelsAccepted int64
}

// clientMetrics caches the client's instruments; all nil (no-op) when
// Metrics is unset.
type clientMetrics struct {
	requests       *obs.CounterVec
	errors         *obs.CounterVec
	latency        *obs.HistogramVec
	batchSize      *obs.Histogram
	labelsRejected *obs.CounterVec
}

// noopClientMetrics serves calls made before Metrics is assigned (e.g.
// the probe requests of daas.Dial); nil instruments are no-ops. The
// real instruments are latched on first use after assignment.
var noopClientMetrics clientMetrics

// defaultHTTPClient serves every Client whose HTTPClient is nil. One
// shared instance (not one per call) keeps the transport's connection
// pool alive, so keep-alives are actually reused under load.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

func (c *Client) metrics() *clientMetrics {
	if c.Metrics == nil {
		return &noopClientMetrics
	}
	c.metricsOnce.Do(func() {
		c.cm = clientMetrics{
			requests:       c.Metrics.CounterVec("daas_rpc_requests_total", "JSON-RPC requests by method", "method"),
			errors:         c.Metrics.CounterVec("daas_rpc_request_errors_total", "failed JSON-RPC requests by method", "method"),
			latency:        c.Metrics.HistogramVec("daas_rpc_request_duration_seconds", "JSON-RPC request latency by method", obs.DefDurationBuckets, "method"),
			batchSize:      c.Metrics.Histogram("daas_rpc_batch_size", "requests per JSON-RPC batch call", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
			labelsRejected: c.Metrics.CounterVec("daas_labels_rejected_total", "label entries skipped during ingestion by source and reason", "source", "reason"),
		}
	})
	return &c.cm
}

// NewClient returns a client for the endpoint.
func NewClient(url string) *Client {
	return &Client{URL: url, HTTPClient: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) call(method string, params any, result any) error {
	return c.callContext(context.Background(), method, params, result)
}

// callContext issues one JSON-RPC request under the retry policy and
// unmarshals its result into result (which nil discards). The context
// travels down to the HTTP exchange, so cancelling it aborts an
// in-flight request (and any backoff sleep) instead of waiting out the
// HTTP client timeout.
func (c *Client) callContext(ctx context.Context, method string, params any, result any) error {
	return c.callDecode(ctx, method, params, unmarshalResult{result})
}

// callDecode issues one JSON-RPC request under the retry policy and
// decodes its result with dec.
func (c *Client) callDecode(ctx context.Context, method string, params any, dec resultDecoder) error {
	raw, err := json.Marshal(params)
	if err != nil {
		return fmt.Errorf("rpc: encoding params: %w", err)
	}
	req := request{JSONRPC: "2.0", ID: c.nextID.Add(1), Method: method, Params: raw}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.Retry.Do(ctx, method, func() error {
		return c.callOnce(ctx, method, body, dec)
	})
}

// callOnce performs one wire attempt. The response body is read to EOF
// into a pooled buffer, validated once and walked in place, with dec
// decoding the result as the walk reaches it (decodeResponse); dec
// must not keep the bytes it sees. Each attempt is instrumented
// separately so daas_rpc_requests_total counts what actually hit the
// server.
func (c *Client) callOnce(ctx context.Context, method string, body []byte, dec resultDecoder) (err error) {
	cm := c.metrics()
	cm.requests.With(method).Inc()
	start := time.Now()
	defer func() {
		cm.latency.With(method).ObserveDuration(time.Since(start))
		if err != nil {
			cm.errors.With(method).Inc()
		}
	}()
	resp, err := c.post(ctx, body)
	if err != nil {
		return fmt.Errorf("rpc: %s: %w", method, err)
	}
	buf := getBuf()
	defer putBuf(buf)
	if *buf, err = readResponse(resp, *buf); err != nil {
		return fmt.Errorf("rpc: %s: reading response: %w", method, err)
	}
	return decodeResponse(method, *buf, dec)
}

// readResponse reads a response body to EOF into dst[:0] and closes
// it. Reading past the end of the JSON value to EOF, rather than
// stopping where a json.Decoder would, is what lets net/http keep the
// connection alive for the next request.
func readResponse(resp *http.Response, dst []byte) ([]byte, error) {
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 && n < maxPooledBuf {
		dst = slices.Grow(dst[:0], int(n)+1)
	}
	return readAll(dst, resp.Body)
}

// post sends one request body and returns the HTTP response body
// reader; the caller must close it. A non-200 status surfaces as a
// *retry.HTTPError so the policy can tell a retryable 503 from a
// definitive 400.
func (c *Client) post(ctx context.Context, body []byte) (*http.Response, error) {
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, &retry.HTTPError{Status: resp.StatusCode}
	}
	return resp, nil
}

// callBatch issues n same-method requests as one spec-compliant
// JSON-RPC batch (a JSON array), matching responses to requests by id
// (the spec lets servers reorder). decode is invoked once per request
// index with its result payload.
func (c *Client) callBatch(method string, n int, params func(i int) any, decode func(i int, raw json.RawMessage) error) error {
	if n == 0 {
		return nil
	}
	reqs := make([]request, n)
	baseID := c.nextID.Add(int64(n)) - int64(n) + 1
	for i := range reqs {
		raw, err := json.Marshal(params(i))
		if err != nil {
			return fmt.Errorf("rpc: encoding batch params: %w", err)
		}
		reqs[i] = request{JSONRPC: "2.0", ID: baseID + int64(i), Method: method, Params: raw}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	// The decode callbacks are idempotent per index, so a retried batch
	// simply overwrites the partial results of the failed attempt.
	return c.Retry.Do(context.Background(), method, func() error {
		return c.batchOnce(method, n, baseID, body, decode)
	})
}

// batchOnce performs one wire attempt of a batch call.
func (c *Client) batchOnce(method string, n int, baseID int64, body []byte, decode func(i int, raw json.RawMessage) error) (err error) {
	cm := c.metrics()
	cm.requests.With(method).Add(uint64(n))
	cm.batchSize.Observe(float64(n))
	start := time.Now()
	defer func() {
		cm.latency.With(method).ObserveDuration(time.Since(start))
		if err != nil {
			cm.errors.With(method).Inc()
		}
	}()
	resp, err := c.post(context.Background(), body)
	if err != nil {
		return fmt.Errorf("rpc: %s batch of %d: %w", method, n, err)
	}
	buf := getBuf()
	defer putBuf(buf)
	if *buf, err = readResponse(resp, *buf); err != nil {
		return fmt.Errorf("rpc: %s batch: reading response: %w", method, err)
	}
	// Unmarshalling copies each result out of the pooled buffer.
	var outs []response
	if err := json.NewDecoder(bytes.NewReader(*buf)).Decode(&outs); err != nil {
		// A parse/invalid-request failure comes back as a single error
		// object rather than an array; surface it if it does.
		return fmt.Errorf("rpc: %s batch: decoding response: %w", method, err)
	}
	if len(outs) != n {
		return fmt.Errorf("rpc: %s batch: %d responses for %d requests", method, len(outs), n)
	}
	byID := make(map[int64]*response, n)
	for i := range outs {
		byID[outs[i].ID] = &outs[i]
	}
	for i := 0; i < n; i++ {
		out, ok := byID[baseID+int64(i)]
		if !ok {
			return fmt.Errorf("rpc: %s batch: response for request %d missing", method, i)
		}
		if out.Error != nil {
			return fmt.Errorf("rpc: %s batch item %d: %w", method, i, out.Error)
		}
		if err := decode(i, out.Result); err != nil {
			return fmt.Errorf("rpc: %s batch item %d: %w", method, i, err)
		}
	}
	return nil
}

// BatchTransactions implements core.BatchSource: one round trip for
// the whole hash list.
func (c *Client) BatchTransactions(hs []ethtypes.Hash) ([]*chain.Transaction, error) {
	out := make([]*chain.Transaction, len(hs))
	err := c.callBatch("eth_getTransactionByHash", len(hs),
		func(i int) any { return []string{hs[i].Hex()} },
		func(i int, raw json.RawMessage) error {
			var tj txJSON
			if err := json.Unmarshal(raw, &tj); err != nil {
				return err
			}
			tx, err := fromTxJSON(tj)
			if err != nil {
				return err
			}
			out[i] = tx
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BatchReceipts implements core.BatchSource.
func (c *Client) BatchReceipts(hs []ethtypes.Hash) ([]*chain.Receipt, error) {
	out := make([]*chain.Receipt, len(hs))
	err := c.callBatch("repro_getReceipt", len(hs),
		func(i int) any { return []string{hs[i].Hex()} },
		func(i int, raw json.RawMessage) error {
			var rj receiptJSON
			if err := json.Unmarshal(raw, &rj); err != nil {
				return err
			}
			rec, err := fromReceiptJSON(rj)
			if err != nil {
				return err
			}
			out[i] = rec
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BlockNumber returns the head block number.
func (c *Client) BlockNumber() (uint64, error) {
	var n uint64
	err := c.call("eth_blockNumber", []any{}, &n)
	return n, err
}

// TransactionsOf implements core.ChainSource.
func (c *Client) TransactionsOf(addr ethtypes.Address) ([]ethtypes.Hash, error) {
	var raw []string
	if err := c.call("repro_transactionsOf", []string{addr.Hex()}, &raw); err != nil {
		return nil, err
	}
	out := make([]ethtypes.Hash, len(raw))
	for i, s := range raw {
		h, err := ethtypes.HexToHash(s)
		if err != nil {
			return nil, err
		}
		out[i] = h
	}
	return out, nil
}

// Transaction implements core.ChainSource.
func (c *Client) Transaction(h ethtypes.Hash) (*chain.Transaction, error) {
	return c.TransactionContext(context.Background(), h)
}

// TransactionContext implements core.ContextSource: the context aborts
// the in-flight HTTP request, so the pipeline's cancel-on-first-error
// stops a doomed batch immediately.
func (c *Client) TransactionContext(ctx context.Context, h ethtypes.Hash) (*chain.Transaction, error) {
	var raw txJSON
	if err := c.callContext(ctx, "eth_getTransactionByHash", []string{h.Hex()}, &raw); err != nil {
		return nil, err
	}
	return fromTxJSON(raw)
}

// Receipt implements core.ChainSource.
func (c *Client) Receipt(h ethtypes.Hash) (*chain.Receipt, error) {
	return c.ReceiptContext(context.Background(), h)
}

// ReceiptContext implements core.ContextSource; see TransactionContext.
func (c *Client) ReceiptContext(ctx context.Context, h ethtypes.Hash) (*chain.Receipt, error) {
	var raw receiptJSON
	if err := c.callContext(ctx, "repro_getReceipt", []string{h.Hex()}, &raw); err != nil {
		return nil, err
	}
	return fromReceiptJSON(raw)
}

// IsContract implements core.ChainSource.
func (c *Client) IsContract(addr ethtypes.Address) (bool, error) {
	var out bool
	err := c.call("repro_isContract", []string{addr.Hex()}, &out)
	return out, err
}

// Balance fetches an account balance.
func (c *Client) Balance(addr ethtypes.Address) (ethtypes.Wei, error) {
	var raw string
	if err := c.call("eth_getBalance", []string{addr.Hex()}, &raw); err != nil {
		return ethtypes.Wei{}, err
	}
	return parseWei(raw)
}

// Code fetches deployed bytecode.
func (c *Client) Code(addr ethtypes.Address) ([]byte, error) {
	var raw string
	if err := c.call("eth_getCode", []string{addr.Hex()}, &raw); err != nil {
		return nil, err
	}
	return decodeHexBlob(raw)
}

// StorageAt reads one storage word of a contract.
func (c *Client) StorageAt(addr ethtypes.Address, key ethtypes.Hash) (ethtypes.Hash, error) {
	var raw string
	if err := c.call("repro_getStorageAt", []string{addr.Hex(), key.Hex()}, &raw); err != nil {
		return ethtypes.Hash{}, err
	}
	return ethtypes.HexToHash(raw)
}

// LogFilter narrows a GetLogs query.
type LogFilter struct {
	FromBlock uint64
	ToBlock   uint64
	Address   *ethtypes.Address
	Topic0    *ethtypes.Hash
}

// GetLogs fetches matching event logs with their tx/block context.
func (c *Client) GetLogs(f LogFilter) ([]chain.LogEntry, error) {
	params := struct {
		FromBlock uint64 `json:"fromBlock"`
		ToBlock   uint64 `json:"toBlock"`
		Address   string `json:"address,omitempty"`
		Topic0    string `json:"topic0,omitempty"`
	}{FromBlock: f.FromBlock, ToBlock: f.ToBlock}
	if f.Address != nil {
		params.Address = f.Address.Hex()
	}
	if f.Topic0 != nil {
		params.Topic0 = f.Topic0.Hex()
	}
	var raw []logEntryJSON
	if err := c.call("repro_getLogs", params, &raw); err != nil {
		return nil, err
	}
	out := make([]chain.LogEntry, 0, len(raw))
	for _, le := range raw {
		addr, err := ethtypes.HexToAddress(le.Log.Address)
		if err != nil {
			return nil, err
		}
		entry := chain.LogEntry{
			TxHash:      ethtypes.Hash{},
			BlockNumber: le.BlockNumber,
			Timestamp:   time.Unix(le.Timestamp, 0).UTC(),
		}
		if entry.TxHash, err = ethtypes.HexToHash(le.TxHash); err != nil {
			return nil, err
		}
		entry.Address = addr
		for _, tp := range le.Log.Topics {
			topic, err := ethtypes.HexToHash(tp)
			if err != nil {
				return nil, err
			}
			entry.Topics = append(entry.Topics, topic)
		}
		if entry.Data, err = decodeHexBlob(le.Log.Data); err != nil {
			return nil, err
		}
		out = append(out, entry)
	}
	return out, nil
}

// StaticCall performs a read-only eth_call.
func (c *Client) StaticCall(to ethtypes.Address, data []byte) ([]byte, error) {
	var raw string
	if err := c.call("eth_call", []string{to.Hex(), "0x" + hex.EncodeToString(data)}, &raw); err != nil {
		return nil, err
	}
	return decodeHexBlob(raw)
}

// ScreenResult is one screening verdict from the daas_screen* methods.
type ScreenResult struct {
	Address ethtypes.Address
	// Listed reports whether the address is on the blacklist; the
	// remaining fields are only meaningful when it is.
	Listed        bool
	Kind          string
	Reason        string
	Family        string
	Tainted       bool
	StaticFlagged bool
	// SnapshotAgeSeconds is how stale the serving snapshot was when this
	// verdict was produced: 0 from a healthy server, and the whole
	// seconds since the last confirmed-fresh snapshot when the server is
	// answering in degraded mode during an upstream outage.
	SnapshotAgeSeconds uint64
}

// Screen asks the screening service for one address verdict.
func (c *Client) Screen(addr ethtypes.Address) (ScreenResult, error) {
	var r verdictResult
	if err := c.callDecode(context.Background(), "daas_screen", []string{addr.Hex()}, &r); err != nil {
		return ScreenResult{}, err
	}
	return r.v, nil
}

// ScreenBatch screens many addresses in one round trip via
// daas_screenBatch (a flat address array in a single request, cheaper
// than n enveloped daas_screen calls). Results come back in input
// order. Workloads beyond the server's per-request cap are split into
// multiple requests transparently.
func (c *Client) ScreenBatch(addrs []ethtypes.Address) ([]ScreenResult, error) {
	out := make([]ScreenResult, 0, len(addrs))
	for off := 0; off < len(addrs); off += maxScreenBatch {
		end := min(off+maxScreenBatch, len(addrs))
		// The chunk's verdicts are decoded in place, into out's spare
		// capacity.
		chunk, err := c.screenBatchOne(out[off:off], addrs[off:end])
		if err != nil {
			return nil, err
		}
		out = out[:off+len(chunk)]
	}
	return out, nil
}

// screenBatchOne issues one daas_screenBatch request and decodes its
// verdicts into dst[:0], which must have room for len(addrs) of them;
// the result aliases dst. The body is appended by hand and the
// response parsed in place straight into ScreenResults; both are
// byte-for-byte what encoding/json would write and accept.
func (c *Client) screenBatchOne(dst []ScreenResult, addrs []ethtypes.Address) ([]ScreenResult, error) {
	const method = "daas_screenBatch"
	ctx := context.Background()
	body := appendScreenBatchRequest(make([]byte, 0, 64+45*len(addrs)), c.nextID.Add(1), addrs)
	r := &verdictsResult{want: len(addrs), list: dst}
	err := c.Retry.Do(ctx, method, func() error {
		return c.callOnce(ctx, method, body, r)
	})
	if err != nil {
		return nil, err
	}
	return r.list, nil
}

// ScreenDomain asks the screening service whether a website domain is
// a confirmed drainer deployment.
func (c *Client) ScreenDomain(domain string) (bool, error) {
	var out bool
	err := c.call("daas_screenDomain", []string{domain}, &out)
	return out, err
}

// FetchLabels downloads the server's public label directory. Entries
// that fail wire decoding or the published schema are skipped and
// counted (LabelRejects/daas_labels_rejected_total) instead of
// aborting the ingestion — community feeds contain noise, and one
// malformed report must not discard the thousands of good ones behind
// it. A source whose rejections exceed its error budget still fails
// loudly: past that point the feed is poisoned, not noisy.
func (c *Client) FetchLabels() (*labels.Directory, error) {
	var raw []labelJSON
	if err := c.call("repro_labels", []any{}, &raw); err != nil {
		return nil, err
	}
	budget := integrity.NewLabelBudget(c.LabelErrorBudget)
	dir := labels.New()
	for _, lj := range raw {
		source := lj.Source
		if source == "" {
			source = "unknown"
		}
		l, err := fromLabelJSON(lj)
		reason := integrity.ReasonLabelMalformed
		if err == nil {
			reason = integrity.CheckLabel(l)
		}
		if reason != "" {
			c.noteLabelReject(source, reason)
			if err := budget.Note(source, reason); err != nil {
				return nil, err
			}
			continue
		}
		dir.Add(l)
		c.labelMu.Lock()
		c.labelsAccepted++
		c.labelMu.Unlock()
	}
	return dir, nil
}

// noteLabelReject books one skipped label entry in the client's ledger
// and, when Metrics is wired, the rejection counter. Dial-time
// ingestion happens before Metrics is assigned; the ledger is what the
// completeness manifest reads, so those rejects are never lost.
func (c *Client) noteLabelReject(source string, reason integrity.Reason) {
	c.labelMu.Lock()
	if c.labelRejects == nil {
		c.labelRejects = make(map[string]int64)
	}
	c.labelRejects[source+"/"+string(reason)]++
	c.labelMu.Unlock()
	c.metrics().labelsRejected.With(source, string(reason)).Inc()
}

// LabelRejects returns the per-"source/reason" counts of label entries
// skipped during ingestion.
func (c *Client) LabelRejects() map[string]int64 {
	c.labelMu.Lock()
	defer c.labelMu.Unlock()
	out := make(map[string]int64, len(c.labelRejects))
	for k, v := range c.labelRejects {
		out[k] = v
	}
	return out
}

// LabelsAccepted returns how many label entries passed ingestion.
func (c *Client) LabelsAccepted() int64 {
	c.labelMu.Lock()
	defer c.labelMu.Unlock()
	return c.labelsAccepted
}

// Helpers shared with the server.

func trim0x(s string) string { return strings.TrimPrefix(s, "0x") }

func decodeHexBlob(s string) ([]byte, error) {
	raw := trim0x(s)
	if raw == "" {
		return nil, nil
	}
	return hex.DecodeString(raw)
}

func weiFromDecimal(s string) (ethtypes.Wei, bool) {
	b, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return ethtypes.Wei{}, false
	}
	return ethtypes.WeiFromBig(b), true
}

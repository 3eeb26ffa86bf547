package rpc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Limits bounds a Server's resource consumption under hostile or
// overloaded conditions. The zero value applies the production
// defaults below; set a field negative to disable that limit
// (ReadyMaxLag, being unsigned, is disabled by setting it very large).
type Limits struct {
	// MaxBodyBytes caps one request body (http.MaxBytesReader); an
	// oversized body earns HTTP 413 and a codeInvalidRequest envelope.
	MaxBodyBytes int64
	// MaxBatch caps one generic JSON-RPC array batch; a longer array
	// earns a single codeInvalidRequest envelope.
	MaxBatch int
	// MaxInFlight caps concurrently-admitted requests. Excess load is
	// shed immediately with HTTP 503, Retry-After, and a CodeOverloaded
	// envelope — the server never queues unboundedly.
	MaxInFlight int
	// RequestTimeout bounds one request end to end: reading the body
	// (slow-loris eviction via the connection read deadline), dispatch,
	// and remaining batch items. Expiry earns CodeTimeout envelopes.
	RequestTimeout time.Duration
	// RetryAfter is advertised in the Retry-After header on shed
	// responses, rounded up to whole seconds.
	RetryAfter time.Duration
	// ReadyMaxLag is the /readyz threshold on radar head lag, in
	// blocks: a radar further behind the head marks the server
	// not-ready so load balancers rotate it out while it catches up.
	ReadyMaxLag uint64
}

// Default limits; see Limits for field semantics.
const (
	DefaultMaxBodyBytes   = 4 << 20
	DefaultMaxBatch       = 4096
	DefaultMaxInFlight    = 256
	DefaultRequestTimeout = 10 * time.Second
	DefaultRetryAfter     = time.Second
	DefaultReadyMaxLag    = 64
)

// writeGrace extends the connection write deadline past the request
// deadline so timeout/overload envelopes still reach slow-but-honest
// clients before the connection is torn down.
const writeGrace = 5 * time.Second

func (l Limits) maxBodyBytes() int64 {
	switch {
	case l.MaxBodyBytes > 0:
		return l.MaxBodyBytes
	case l.MaxBodyBytes < 0:
		return 0
	default:
		return DefaultMaxBodyBytes
	}
}

func (l Limits) maxBatch() int {
	switch {
	case l.MaxBatch > 0:
		return l.MaxBatch
	case l.MaxBatch < 0:
		return 0
	default:
		return DefaultMaxBatch
	}
}

func (l Limits) maxInFlight() int {
	switch {
	case l.MaxInFlight > 0:
		return l.MaxInFlight
	case l.MaxInFlight < 0:
		return 0
	default:
		return DefaultMaxInFlight
	}
}

func (l Limits) requestTimeout() time.Duration {
	switch {
	case l.RequestTimeout > 0:
		return l.RequestTimeout
	case l.RequestTimeout < 0:
		return 0
	default:
		return DefaultRequestTimeout
	}
}

func (l Limits) retryAfterSeconds() int {
	d := l.RetryAfter
	if d <= 0 {
		d = DefaultRetryAfter
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (l Limits) readyMaxLag() uint64 {
	if l.ReadyMaxLag > 0 {
		return l.ReadyMaxLag
	}
	return DefaultReadyMaxLag
}

// admit claims an admission slot, or reports that the server is at
// MaxInFlight and the request must be shed. The release func is nil
// exactly when admitted is false.
func (s *Server) admit() (release func(), admitted bool) {
	n := s.Limits.maxInFlight()
	if n == 0 {
		return func() {}, true
	}
	s.gateOnce.Do(func() { s.gate = make(chan struct{}, n) })
	select {
	case s.gate <- struct{}{}:
		sm := s.metrics()
		sm.inflight.Add(1)
		return func() {
			sm.inflight.Add(-1)
			<-s.gate
		}, true
	default:
		return nil, false
	}
}

// shed answers one rejected request: HTTP 503, a Retry-After hint, and
// a CodeOverloaded envelope so JSON-RPC clients see a structured error
// rather than a bare status line.
func (s *Server) shed(w http.ResponseWriter) {
	s.metrics().shed.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.Limits.retryAfterSeconds()))
	s.writeError(w, http.StatusServiceUnavailable, &rpcError{Code: codeOverloaded, Message: "server overloaded, retry later"})
}

// Ready reports whether this server should receive traffic: the
// screening engine (when attached) has a compiled snapshot, and the
// radar (when attached) is within ReadyMaxLag blocks of the head.
// The reason is empty when ready.
func (s *Server) Ready() (bool, string) {
	if s.Screen != nil && s.Screen.Snapshot() == nil {
		return false, "screening engine has no snapshot"
	}
	if s.Radar != nil {
		st := s.Radar.Status()
		if st.Head > st.Cursor {
			if lag := st.Head - st.Cursor; lag > s.Limits.readyMaxLag() {
				return false, fmt.Sprintf("radar lags head by %d blocks (max %d)", lag, s.Limits.readyMaxLag())
			}
		}
	}
	return true, ""
}

// serveHealth answers GET /healthz (liveness: the process is serving)
// and GET /readyz (readiness per Ready). Not-ready earns HTTP 503 with
// the reason, so orchestrators and humans see the same diagnosis.
func (s *Server) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Path == "/healthz" {
		_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
		return
	}
	ok, reason := s.Ready()
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = fmt.Fprintf(w, "{\"status\":\"unavailable\",\"reason\":%q}\n", reason)
		return
	}
	_, _ = io.WriteString(w, "{\"status\":\"ready\"}\n")
}

// HTTPServer wraps the handler in an http.Server with hardened
// transport timeouts derived from the request deadline: header reads,
// whole-request reads/writes, and idle keep-alives are all bounded so
// hostile connections cannot hold sockets forever.
func (s *Server) HTTPServer(addr string) *http.Server {
	rt := s.Limits.requestTimeout()
	if rt <= 0 {
		rt = 30 * time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       rt + writeGrace,
		WriteTimeout:      rt + writeGrace,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    16 << 10,
	}
}

// GracefulServe runs srv.ListenAndServe until ctx is cancelled, then
// drains in-flight requests for up to drain before forcing the close.
// It returns nil on a clean shutdown. Both daasctl serving subcommands
// share this so SIGINT/SIGTERM never drop accepted requests.
func GracefulServe(ctx context.Context, srv *http.Server, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("rpc: draining server: %w", err)
	}
	return <-errc
}

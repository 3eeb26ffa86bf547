package main

import (
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// countingHandler wraps an rpc.Server and, while on, counts requests,
// request and response bytes, and the time spent in ServeHTTP. Off, it
// adds one atomic load per request. With capture set it also keeps the
// last request body, so a probe can replay the exact bytes in process.
type countingHandler struct {
	h       http.Handler
	on      atomic.Bool
	capture atomic.Bool

	mu        sync.Mutex
	requests  int
	reqBytes  int64
	respBytes int64
	busy      time.Duration
	lastBody  []byte
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !c.on.Load() {
		c.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	body := &countingReader{r: r.Body, keep: c.capture.Load()}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	c.h.ServeHTTP(cw, r)
	d := time.Since(start)
	c.mu.Lock()
	c.requests++
	c.reqBytes += body.n
	c.respBytes += cw.n
	c.busy += d
	if body.keep {
		c.lastBody = body.buf
	}
	c.mu.Unlock()
}

// handlerStats is a snapshot of the counters.
type handlerStats struct {
	Requests            int
	ReqBytes, RespBytes int64
	Busy                time.Duration
}

func (c *countingHandler) stats() handlerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return handlerStats{c.requests, c.reqBytes, c.respBytes, c.busy}
}

func (c *countingHandler) reset() {
	c.mu.Lock()
	c.requests, c.reqBytes, c.respBytes, c.busy, c.lastBody = 0, 0, 0, 0, nil
	c.mu.Unlock()
}

func (c *countingHandler) last() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastBody
}

type countingReader struct {
	r    io.ReadCloser
	n    int64
	keep bool
	buf  []byte
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if c.keep {
		c.buf = append(c.buf, p[:n]...)
	}
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the connection, which the
// server uses for its read and write deadlines.
func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// loopbackServer serves h through srv on a fresh 127.0.0.1 port.
type loopbackServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func serveLoopback(srv *http.Server) (*loopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopbackServer{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to exit.
func (s *loopbackServer) close() {
	_ = s.srv.Close() // Serve's own return value below is what we wait on
	<-s.done
}

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

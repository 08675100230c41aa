package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// Request-ID propagation: every request gets an ID — the client's
// X-Request-Id if it sent one, a generated one otherwise — echoed back
// in the response header, carried in the request context, and attached
// to every log line and slow-solve record. That one ID is the join key
// between a client trace, the daemon's structured log, and /debugz/slow.

type requestIDKey struct{}

// requestIDFrom returns the request ID carried by ctx, or "".
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ridPrefix distinguishes generated IDs across process restarts;
// ridCounter distinguishes them within one.
var (
	ridPrefix  = uint32(time.Now().UnixNano())
	ridCounter atomic.Uint64
)

func newRequestID() string {
	return fmt.Sprintf("%08x-%010x", ridPrefix, ridCounter.Add(1))
}

// maxRequestIDLen bounds client-supplied IDs (they are echoed into
// headers and logs; unbounded input is neither).
const maxRequestIDLen = 128

// statusWriter captures the response status for the access log and the
// e2e latency histogram.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: the observability middleware
// (request ID in/out, e2e latency, structured access log) in front of
// the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > maxRequestIDLen {
		id = newRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)

	elapsed := time.Since(start)
	s.metrics.observeRequest(r.URL.Path, elapsed.Seconds())
	if s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("requestId", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("durationMs", float64(elapsed.Nanoseconds())/1e6),
			slog.String("cache", sw.Header().Get("X-Psdpd-Cache")),
		)
	}
}

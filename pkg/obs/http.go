package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

// Route is one endpoint registered on a Mux: its path and the single
// method it accepts (HEAD rides along with GET).
type Route struct {
	Path   string `json:"path"`
	Method string `json:"method"`
}

// Mux is the request edge every HTTP tier serves through. Each route it
// registers enforces its method, carries a request ID, and is counted,
// timed and access-logged under the tier's metric prefix, so the contract
// is the same on the server, the gateway and the control plane.
type Mux struct {
	o        *Obs
	mux      *http.ServeMux
	routes   []Route
	requests *Counter
	latency  *Histogram
}

// NewMux builds an empty Mux whose request counter and latency histogram
// are <prefix>_http_requests_total{path,code} and
// <prefix>_http_request_duration_seconds{path}.
func NewMux(o *Obs, prefix string) *Mux {
	return &Mux{
		o:   o,
		mux: http.NewServeMux(),
		requests: o.Registry.Counter(prefix+"_http_requests_total",
			"HTTP requests served, by path and status code.", "path", "code"),
		latency: o.Registry.Histogram(prefix+"_http_request_duration_seconds",
			"HTTP request handling latency.", LatencyBuckets, "path"),
	}
}

// Route registers one method-enforced, instrumented endpoint. Any other
// method is answered with 405, an Allow header naming method, and the
// usage hint; HEAD is accepted wherever GET is (net/http drops the body).
// The request ID is the caller's X-Request-Id, or a fresh one: it is
// stored in the handler's context and echoed on the reply. The series a
// healthy route hits on every request — {path, code="200"} and the path's
// duration histogram — are bound here, once; other codes take the
// label-joined lookup.
func (m *Mux) Route(path, method, usage string, h http.HandlerFunc) {
	m.routes = append(m.routes, Route{Path: path, Method: method})
	ok200 := m.requests.Bind(path, "200")
	latency := m.latency.Bind(path)
	m.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		ctx, reqID := WithRequestID(r.Context(), r.Header.Get("X-Request-Id"))
		w.Header().Set("X-Request-Id", reqID)
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			WriteError(sr, http.StatusMethodNotAllowed, usage)
		} else {
			h(sr, r.WithContext(ctx))
		}
		elapsed := time.Since(start)
		if sr.code == http.StatusOK {
			ok200.Inc()
		} else {
			m.requests.Inc(path, strconv.Itoa(sr.code))
		}
		latency.Observe(elapsed.Seconds())
		if m.o.Logger.Enabled(LevelDebug) {
			m.o.Logger.WithCtx(ctx).Debug("http request",
				"method", r.Method,
				"path", path,
				"code", sr.code,
				"duration_us", float64(elapsed.Microseconds()))
		}
	})
}

// Handle mounts h bare: no method check, request ID or instrumentation,
// and no entry in Routes. It is for handlers such as net/http/pprof's
// that stream through http.Flusher, which the status recorder does not
// forward, and whose traffic would skew the latency histogram.
func (m *Mux) Handle(pattern string, h http.Handler) { m.mux.Handle(pattern, h) }

// Routes returns every endpoint registered with Route, in registration
// order, so audits can iterate the whole surface.
func (m *Mux) Routes() []Route { return append([]Route(nil), m.routes...) }

// ServeHTTP implements http.Handler.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// ServeHTTP serves the registry as Prometheus text metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// WriteJSON renders v as one line of compact JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteBody sends an already-encoded JSON document in one Write.
func WriteBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// WriteError sends {"error": msg} with the given status.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// ReadBody drains the request body, capped at limit bytes, into buf.
func ReadBody(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request, limit int64) error {
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return err
}

// DecodeJSON reads a body of at most limit bytes into v with
// json.Unmarshal's strictness: anything after the one JSON value is an
// error, unknown fields are not. An empty body leaves v as it is, so a
// handler whose fields are all optional needs no special case, and one
// with a required field reports it missing.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	var buf bytes.Buffer
	if err := ReadBody(&buf, w, r, limit); err != nil || buf.Len() == 0 {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// ReadReply reads a peer's reply body of at most limit bytes: the client
// side of ReadBody. A longer reply is an error that names the limit, never
// a silent truncation.
func ReadReply(body io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err == nil && int64(len(b)) > limit {
		err = fmt.Errorf("reply exceeds the limit of %d bytes", limit)
	}
	return b, err
}

// DecodeReply reads a peer's JSON reply of at most limit bytes into v with
// json.Unmarshal's strictness: the client side of DecodeJSON. Anything after
// the one JSON value is an error.
func DecodeReply(body io.Reader, limit int64, v any) error {
	b, err := ReadReply(body, limit)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// Serve runs srv until ListenAndServe fails, ctx ends, or the process gets
// SIGINT or SIGTERM. It then restores default signal handling, so a second
// signal kills the process at once, and drains in-flight requests for at
// most shutdownTimeout. It returns the listen error, or the drain's.
func Serve(ctx context.Context, srv *http.Server, shutdownTimeout time.Duration, logger *Logger) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "timeout", shutdownTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	logger.Info("shutdown complete")
	return err
}

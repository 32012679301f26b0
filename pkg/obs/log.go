package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pml-mpi/pmlmpi/pkg/jsonappend"
)

// Level is a log severity level.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a string ("debug", "info", "warn", "error") to a Level,
// defaulting to info on unknown input.
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Logger emits structured JSON lines: one object per record with ts, level,
// msg, and any key/value fields. It is safe for concurrent use.
type Logger struct {
	out   *logSink
	level *int32
	base  []kv // fields attached via With
	now   func() time.Time
}

// logSink is the writer a logger and its With children share. Records are
// formatted into buf under mu, so emitting allocates no per-record buffer
// and concurrent records never interleave.
type logSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// maxKeptLogBuf bounds the buffer a sink keeps between records, so one
// outsized record (a flight-recorder dump) is not pinned for good.
const maxKeptLogBuf = 64 << 10

type kv struct {
	k string
	v any
}

// NewLogger returns a logger writing JSON lines at or above the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	lv := int32(level)
	return &Logger{out: &logSink{w: w}, level: &lv, now: time.Now}
}

// SetLevel changes the minimum emitted level at runtime.
func (l *Logger) SetLevel(level Level) { atomic.StoreInt32(l.level, int32(level)) }

// Enabled reports whether records at the given level would be emitted.
func (l *Logger) Enabled(level Level) bool { return level >= Level(atomic.LoadInt32(l.level)) }

// With returns a child logger that attaches the given key/value pairs to
// every record. Keys must be strings; pairs are (key, value) interleaved.
func (l *Logger) With(pairs ...any) *Logger {
	child := *l
	child.base = append([]kv(nil), l.base...)
	for i := 0; i < len(pairs); i += 2 {
		k, v := pairAt(pairs, i)
		child.base = append(child.base, kv{k, v})
	}
	return &child
}

// CtxLogger is a Logger view that stamps one request ID on every record.
// It is a value, so deriving one per request allocates nothing.
type CtxLogger struct {
	l     *Logger
	reqID string
}

// WithCtx returns a view of l that attaches the request ID from ctx, if
// any, to every record at emit time.
func (l *Logger) WithCtx(ctx context.Context) CtxLogger {
	return CtxLogger{l: l, reqID: RequestIDFrom(ctx)}
}

func (c CtxLogger) Debug(msg string, pairs ...any) { c.l.emit(LevelDebug, msg, c.reqID, pairs) }
func (c CtxLogger) Info(msg string, pairs ...any)  { c.l.emit(LevelInfo, msg, c.reqID, pairs) }
func (c CtxLogger) Warn(msg string, pairs ...any)  { c.l.emit(LevelWarn, msg, c.reqID, pairs) }
func (c CtxLogger) Error(msg string, pairs ...any) { c.l.emit(LevelError, msg, c.reqID, pairs) }

func (l *Logger) Debug(msg string, pairs ...any) { l.emit(LevelDebug, msg, "", pairs) }
func (l *Logger) Info(msg string, pairs ...any)  { l.emit(LevelInfo, msg, "", pairs) }
func (l *Logger) Warn(msg string, pairs ...any)  { l.emit(LevelWarn, msg, "", pairs) }
func (l *Logger) Error(msg string, pairs ...any) { l.emit(LevelError, msg, "", pairs) }

// emit formats one record: ts, level, msg, the With fields, the request ID
// (when non-empty), then pairs.
func (l *Logger) emit(level Level, msg, reqID string, pairs []any) {
	if !l.Enabled(level) {
		return
	}
	ts := l.now().UTC()
	out := l.out
	out.mu.Lock()
	buf := append(out.buf[:0], `{"ts":"`...)
	buf = ts.AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","level":"`...)
	buf = append(buf, level.String()...)
	buf = append(buf, `","msg":`...)
	buf = jsonappend.String(buf, msg)
	for _, f := range l.base {
		buf = appendField(buf, f.k, f.v)
	}
	if reqID != "" {
		buf = appendField(buf, "request_id", reqID)
	}
	for i := 0; i < len(pairs); i += 2 {
		k, v := pairAt(pairs, i)
		buf = appendField(buf, k, v)
	}
	buf = append(buf, '}', '\n')
	out.w.Write(buf)
	if cap(buf) <= maxKeptLogBuf {
		out.buf = buf
	}
	out.mu.Unlock()
}

func appendField(buf []byte, k string, v any) []byte {
	buf = append(buf, ',')
	buf = jsonappend.String(buf, k)
	buf = append(buf, ':')
	return appendValue(buf, v)
}

// appendValue renders the field types the serving path logs without
// reflection — each case appends exactly what json.Marshal would — and
// hands every other type (maps, slices, structs, NaN) to json.Marshal.
func appendValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return jsonappend.String(buf, x)
	case bool:
		return strconv.AppendBool(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int32:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case time.Duration:
		return strconv.AppendInt(buf, int64(x), 10)
	case uint:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint32:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	case float64:
		if out, ok := jsonappend.Float64(buf, x); ok {
			return out
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(v))
	}
	return append(buf, b...)
}

// pairAt returns the key and value of the pair starting at pairs[i] (i
// even). A non-string key is rendered with fmt.Sprint; a trailing value
// without a key is named "arg".
func pairAt(pairs []any, i int) (string, any) {
	if i+1 == len(pairs) {
		return "arg", pairs[i]
	}
	k, ok := pairs[i].(string)
	if !ok {
		k = fmt.Sprint(pairs[i])
	}
	return k, pairs[i+1]
}

type requestIDKey struct{}

// reqIDPrefix is a per-process random 8-hex-char prefix; reqIDCounter
// completes each ID. One crypto/rand read at startup instead of one per
// request keeps ID generation off the selection hot path (~µs → ~ns)
// while IDs stay unique per process and collision-resistant across
// processes.
var (
	reqIDPrefix  = newReqIDPrefix()
	reqIDCounter atomic.Uint64
)

func newReqIDPrefix() [8]byte {
	var raw [4]byte
	if _, err := rand.Read(raw[:]); err != nil {
		// Fall back to a timestamp-derived prefix; uniqueness is best-effort.
		binary.LittleEndian.PutUint32(raw[:], uint32(time.Now().UnixNano()))
	}
	var out [8]byte
	hex.Encode(out[:], raw[:])
	return out
}

// NewRequestID returns a fresh 16-hex-char request ID: the process prefix
// followed by a monotonically increasing counter.
func NewRequestID() string {
	var b [16]byte
	copy(b[:8], reqIDPrefix[:])
	n := reqIDCounter.Add(1)
	const digits = "0123456789abcdef"
	for i := 15; i >= 8; i-- {
		b[i] = digits[n&0xf]
		n >>= 4
	}
	return string(b[:])
}

// WithRequestID stores a request ID in ctx, generating one if id is empty.
func WithRequestID(ctx context.Context, id string) (context.Context, string) {
	if id == "" {
		id = NewRequestID()
	}
	return context.WithValue(ctx, requestIDKey{}, id), id
}

// RequestIDFrom returns the request ID stored in ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		return id
	}
	return ""
}

package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// marshalRendering is how the logger rendered a record before it became
// append-style: json.Marshal of every key and every value, with fmt.Sprint
// standing in for values Marshal rejects. It is the golden the type-switch
// fast paths are held to, byte for byte.
func marshalRendering(ts time.Time, level Level, msg string, pairs ...any) string {
	field := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			b, _ = json.Marshal(fmt.Sprint(v))
		}
		return string(b)
	}
	out := `{"ts":"` + ts.UTC().Format(time.RFC3339Nano) + `","level":"` + level.String() + `","msg":` + field(msg)
	for i := 0; i+1 < len(pairs); i += 2 {
		out += "," + field(pairs[i]) + ":" + field(pairs[i+1])
	}
	return out + "}\n"
}

func TestLoggerBytesMatchMarshalRendering(t *testing.T) {
	type custom struct {
		A int    `json:"a"`
		B string `json:"b,omitempty"`
	}
	records := [][]any{
		// one record per fast-path type, plain and awkward values of each
		{"s", "plain", "empty", "", "quote", `a"b\c`, "html", "<a&b>", "ctl", "tab\there\n", "utf8", "größe µs", "bad", "a\xffb", "sep", " "},
		{"t", true, "f", false},
		{"int", 42, "neg", -7, "zero", 0, "min", math.MinInt64, "i32", int32(-3), "i64", int64(1) << 40},
		{"uint", uint(9), "u32", uint32(7), "u64", uint64(math.MaxUint64)},
		{"whole", 12.0, "frac", 204.8, "tiny", 1e-7, "edge", 1e-6, "huge", 1e21, "below", 9.99e20,
			"negzero", math.Copysign(0, -1), "third", 1.0 / 3, "sub", 5e-324, "max", math.MaxFloat64, "us", float64(1234)},
		{"dur", 1500 * time.Millisecond, "zero", time.Duration(0), "neg", -time.Second},
		// what stays with json.Marshal
		{"nan", math.NaN(), "inf", math.Inf(1)},
		{"map", map[string]int{"b": 2, "a": 1}, "slice", []string{"x", "y"}, "struct", custom{A: 1}, "nil", nil,
			"f32", float32(0.1), "i8", int8(-8), "err", errors.New("boom"), "ptr", &custom{A: 2, B: "p"}},
		// awkward keys
		{"k\"ey", 1, "<k>", 2, "", 3},
	}
	ts := time.Date(2026, 9, 28, 10, 17, 3, 120000000, time.FixedZone("", 3600))
	for _, level := range []Level{LevelInfo, LevelWarn, LevelError} {
		for _, pairs := range records {
			var buf bytes.Buffer
			log := NewLogger(&buf, LevelInfo)
			log.now = func() time.Time { return ts }
			log.emit(level, "msg <"+level.String()+">", "", pairs)
			if want := marshalRendering(ts, level, "msg <"+level.String()+">", pairs...); buf.String() != want {
				t.Errorf("record differs from the json.Marshal rendering\n got: %s\nwant: %s", buf.String(), want)
			}
		}
	}
}

func TestLoggerFieldOrderAndOddPairs(t *testing.T) {
	ts := time.Unix(1790590623, 0)
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelDebug)
	log.now = func() time.Time { return ts }
	ctx, _ := WithRequestID(context.Background(), "req-9")

	// With fields first, then the context's request ID, then the pairs; a
	// non-string key is Sprint-ed and a dangling value is named "arg".
	log.With("component", "bundle").WithCtx(ctx).Info("loaded", "n", 1, 7, "seven", "dangling")
	want := marshalRendering(ts, LevelInfo, "loaded", "component", "bundle", "request_id", "req-9", "n", 1, "7", "seven", "arg", "dangling")
	if buf.String() != want {
		t.Errorf("got  %swant %s", buf.String(), want)
	}

	buf.Reset()
	log.WithCtx(context.Background()).Warn("no id")
	if want := marshalRendering(ts, LevelWarn, "no id"); buf.String() != want {
		t.Errorf("a context without a request ID must add no field\ngot  %swant %s", buf.String(), want)
	}
}

func TestLoggerEmitDoesNotAllocate(t *testing.T) {
	log := NewLogger(discard{}, LevelInfo)
	log.Info("warm the shared buffer", "k", "v")
	// Constant strings and small ints box without allocating, so what is
	// left is the logger's own cost.
	if n := testing.AllocsPerRun(200, func() {
		log.Info("selection", "collective", "alltoall", "class", 1, "cached", true)
	}); n != 0 {
		t.Errorf("emit allocates %.0f times per record, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { log.Debug("below the level", "k", "v") }); n != 0 {
		t.Errorf("a suppressed record allocates %.0f times, want 0", n)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestStageMaterializesSpansOnlyWhenKept: an untraced stage is a histogram
// observation and nothing else; sampling or debug logging brings the span
// (and with it the tree and the log record) back.
func TestStageMaterializesSpansOnlyWhenKept(t *testing.T) {
	var logBuf bytes.Buffer
	o := New(&logBuf, LevelInfo)
	decide, eval := o.Tracer.Stage("selector.decide"), o.Tracer.Stage("forest.eval")
	count := func(span string) uint64 { return o.Tracer.hist.Count(span) }
	ctx := context.Background()

	// Sampling off, info level: no span, same context, durations observed.
	got, sp := decide.Start(ctx, "r1")
	if sp != nil || got != ctx {
		t.Fatalf("untraced Start returned span %v / a derived context", sp)
	}
	eval.End(nil, 3*time.Microsecond)
	decide.End(nil, 5*time.Microsecond)
	if count("selector.decide") != 1 || count("forest.eval") != 1 {
		t.Errorf("untraced stages observed %d/%d times, want 1/1", count("selector.decide"), count("forest.eval"))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, sp := decide.Start(ctx, "r1")
		decide.End(sp, time.Microsecond)
	}); allocs != 0 {
		t.Errorf("untraced Start+End allocates %.0f times, want 0", allocs)
	}
	if o.Traces.Len() != 0 || logBuf.Len() != 0 {
		t.Errorf("untraced stages left %d traces and log %q", o.Traces.Len(), logBuf.String())
	}

	// Sampled: a real tree, stamped with the request ID handed to Start.
	o.Traces.SetSampleRate(1)
	before := count("selector.decide")
	sctx, root := decide.Start(ctx, "r2")
	if root == nil || sctx == ctx {
		t.Fatal("sampled Start must return a span and a context carrying it")
	}
	child := eval.Child(root)
	eval.End(child, 0)
	decide.End(root, 0)
	if count("selector.decide") != before+1 {
		t.Errorf("sampled stage observed %d times, want %d", count("selector.decide"), before+1)
	}
	list := o.Traces.List(0)
	if len(list) != 1 || list[0].RequestID != "r2" || list[0].Spans != 2 {
		t.Fatalf("sampled stages retained %+v, want one 2-span trace for r2", list)
	}

	// Under an unsampled parent, a stage stays a bare observation.
	o.Traces.SetSampleRate(0)
	pctx, parent := o.Tracer.Start(ctx, "selector.batch")
	if _, sp := decide.Start(pctx, "r3"); sp != nil {
		t.Error("a stage under an unsampled parent must not materialize")
	}
	parent.End()

	// Debug level alone brings spans back, for their log records.
	o.Logger.SetLevel(LevelDebug)
	_, sp = decide.Start(ctx, "r4")
	if sp == nil {
		t.Fatal("debug level must materialize the span")
	}
	decide.End(sp, 0)
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &rec); err != nil {
		t.Fatalf("debug span record: %v: %q", err, logBuf.String())
	}
	if rec["span"] != "selector.decide" || rec["request_id"] != "r4" {
		t.Errorf("debug span record = %v", rec)
	}
}

package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ValidateRecord checks one benchmark record against an algorithm table
// without touching any dataset: canonical features only, finite values,
// exactly one of an explicit algorithm or per-algorithm latencies, and the
// winner resolvable to a class index. Returns the resolved class index and
// algorithm name.
func ValidateRecord(algorithms map[string][]string, rec *Record) (class int, algorithm string, err error) {
	if rec == nil {
		return 0, "", fmt.Errorf("nil record")
	}
	if rec.Collective == "" {
		return 0, "", fmt.Errorf("missing collective")
	}
	if err := validateFeatures(rec.Features); err != nil {
		return 0, "", err
	}
	if rec.Algorithm != "" && len(rec.LatenciesUS) > 0 {
		return 0, "", fmt.Errorf("record has both an explicit algorithm and latencies; use one")
	}
	d := &Dataset{Algorithms: algorithms}
	switch {
	case rec.Algorithm != "":
		cls, err := d.classOf(rec.Collective, rec.Algorithm)
		if err != nil {
			return 0, "", err
		}
		return cls, rec.Algorithm, nil
	case len(rec.LatenciesUS) > 0:
		return d.labelFromLatencies(rec.Collective, rec.LatenciesUS)
	default:
		return 0, "", fmt.Errorf("record has neither an algorithm label nor latencies")
	}
}

// Key derives the deduplication identity of a feature point: the collective
// plus every feature's float64 bits in sorted name order. Two records with
// bit-identical features collide regardless of their labels or latencies.
func Key(collective string, features map[string]float64) string {
	names := make([]string, 0, len(features))
	for n := range features {
		names = append(names, n)
	}
	sort.Strings(names)
	// The same bytes as "|%s=%x" per feature, without fmt.
	size := len(collective)
	for _, n := range names {
		size += len(n) + 18 // '|', '=' and at most 16 hex digits
	}
	b := make([]byte, 0, size)
	b = append(b, collective...)
	for _, n := range names {
		b = append(b, '|')
		b = append(b, n...)
		b = append(b, '=')
		b = strconv.AppendUint(b, math.Float64bits(features[n]), 16)
	}
	return string(b)
}

// AppendJSONL is an append-only writer of validated benchmark records in
// the JSONL format ReadJSONL ingests. Every Append writes one complete
// newline-terminated line in a single write followed by fsync, so a crash
// can only ever leave a torn final line — which OpenAppendJSONL repairs by
// truncating back to the last newline. Safe for concurrent use.
type AppendJSONL struct {
	mu         sync.Mutex
	f          *os.File
	path       string
	algorithms map[string][]string
	records    int
	recovered  int64
}

// OpenAppendJSONL opens (creating if needed) a JSONL record file for
// appending. Existing complete lines are re-validated against the
// algorithm table (nil skips semantic validation, keeping only the JSON
// shape check) and counted; a trailing partial line — the signature of a
// crash mid-write — is truncated away and reported via RecoveredBytes. A
// corrupt *complete* line is real corruption, not a torn write, and fails
// the open.
func OpenAppendJSONL(path string, algorithms map[string][]string) (*AppendJSONL, error) {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("appendjsonl %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("appendjsonl %s: %w", path, err)
	}
	w := &AppendJSONL{f: f, path: path, algorithms: algorithms}
	if err := w.recover(); err != nil {
		f.Close()
		return nil, fmt.Errorf("appendjsonl %s: %w", path, err)
	}
	return w, nil
}

// recover scans the file, validating complete lines and truncating any
// torn tail, and positions the file offset at the end.
func (w *AppendJSONL) recover() error {
	size, err := w.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(w.f, 64*1024)
	var offset, lastComplete int64
	line := 0
	for {
		text, err := br.ReadString('\n')
		if err == io.EOF {
			// text, if non-empty, is a torn final line with no newline.
			break
		}
		if err != nil {
			return err
		}
		offset += int64(len(text))
		lastComplete = offset
		line++
		if err := w.validateLine(text, line); err != nil {
			return err
		}
	}
	if size > lastComplete {
		w.recovered = size - lastComplete
		if err := w.f.Truncate(lastComplete); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	_, err = w.f.Seek(lastComplete, io.SeekStart)
	return err
}

// validateLine checks one complete line (blank and #-comment lines pass).
func (w *AppendJSONL) validateLine(text string, line int) error {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return nil
	}
	var rec Record
	dec := json.NewDecoder(strings.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return fmt.Errorf("line %d: corrupt record: %w", line, err)
	}
	if w.algorithms != nil {
		if _, _, err := ValidateRecord(w.algorithms, &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	w.records++
	return nil
}

// Append validates and writes one record as a single fsync'd line.
func (w *AppendJSONL) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("appendjsonl %s: closed", w.path)
	}
	if w.algorithms != nil {
		if _, _, err := ValidateRecord(w.algorithms, rec); err != nil {
			return fmt.Errorf("appendjsonl %s: %w", w.path, err)
		}
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("appendjsonl %s: %w", w.path, err)
	}
	buf = append(buf, '\n')
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("appendjsonl %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("appendjsonl %s: %w", w.path, err)
	}
	w.records++
	return nil
}

// Records returns how many records the file holds (counted at open plus
// appended since).
func (w *AppendJSONL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// RecoveredBytes reports how many torn trailing bytes the open truncated.
func (w *AppendJSONL) RecoveredBytes() int64 { return w.recovered }

// Path returns the file path.
func (w *AppendJSONL) Path() string { return w.path }

// Close syncs and closes the file. Further Appends fail.
func (w *AppendJSONL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

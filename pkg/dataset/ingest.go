package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// latPrefix marks per-algorithm latency columns in CSV headers:
// "lat_<algorithm>", value in microseconds (any consistent unit works —
// only the argmin matters).
const latPrefix = "lat_"

// Record is one JSONL benchmark record. Exactly one of Algorithm or
// LatenciesUS must label the row: an explicit winner, or per-algorithm
// measured latencies whose argmin wins.
type Record struct {
	Collective  string             `json:"collective"`
	Features    map[string]float64 `json:"features"`
	Algorithm   string             `json:"algorithm,omitempty"`
	LatenciesUS map[string]float64 `json:"latency_us,omitempty"`
}

// ReadJSONL ingests newline-delimited JSON benchmark records into a new
// dataset over the given algorithm table. Blank lines and #-comment lines
// are skipped; any malformed record aborts with its line number.
func ReadJSONL(r io.Reader, algorithms map[string][]string) (*Dataset, error) {
	d := New(algorithms)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var rec Record
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", line, err)
		}
		if rec.Algorithm != "" && len(rec.LatenciesUS) > 0 {
			return nil, fmt.Errorf("jsonl line %d: record has both an explicit algorithm and latencies; use one", line)
		}
		if err := d.add(rec.Collective, rec.Features, rec.Algorithm, rec.LatenciesUS); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	return d, nil
}

// csvHeader is the parsed layout of a benchmark CSV: which columns are
// features and which are per-algorithm latencies.
type csvHeader struct {
	features map[int]string // column → canonical feature name
	lats     map[int]string // column → algorithm name
}

// parseCSVHeader validates the header row: "collective" first, then
// canonical feature columns, then at least one lat_<algorithm> column.
func parseCSVHeader(row []string) (*csvHeader, error) {
	if len(row) < 3 {
		return nil, fmt.Errorf("header needs at least collective, one feature, and one %s<algorithm> column", latPrefix)
	}
	if row[0] != "collective" {
		return nil, fmt.Errorf("first header column must be \"collective\", got %q", row[0])
	}
	h := &csvHeader{features: map[int]string{}, lats: map[int]string{}}
	for i := 1; i < len(row); i++ {
		name := strings.TrimSpace(row[i])
		switch {
		case strings.HasPrefix(name, latPrefix):
			algo := name[len(latPrefix):]
			if algo == "" {
				return nil, fmt.Errorf("column %d: latency column %q names no algorithm", i+1, name)
			}
			h.lats[i] = algo
		case requestFeature(name):
			h.features[i] = name
		default:
			return nil, fmt.Errorf("column %d: %q is neither a canonical feature nor a %s<algorithm> column", i+1, name, latPrefix)
		}
	}
	if len(h.features) == 0 {
		return nil, fmt.Errorf("header has no feature columns")
	}
	if len(h.lats) == 0 {
		return nil, fmt.Errorf("header has no %s<algorithm> columns", latPrefix)
	}
	return h, nil
}

// ReadCSV ingests a benchmark CSV into a new dataset. Header layout:
//
//	collective,<feature>...,lat_<algorithm>...
//
// Feature cells must all parse; latency cells may be empty (algorithm not
// measured for that row) but at least one per row must be present, and the
// named algorithms must belong to the row's collective. encoding/csv
// enforces arity: a row with the wrong number of cells is an error.
func ReadCSV(r io.Reader, algorithms map[string][]string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	first, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("csv: empty input (no header)")
	}
	if err != nil {
		return nil, fmt.Errorf("csv header: %w", err)
	}
	h, err := parseCSVHeader(first)
	if err != nil {
		return nil, fmt.Errorf("csv header: %w", err)
	}
	d := New(algorithms)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			// csv.ParseError already carries the line number.
			return nil, fmt.Errorf("csv: %w", err)
		}
		line, _ := cr.FieldPos(0)
		features := make(map[string]float64, len(h.features))
		for col, name := range h.features {
			v, err := strconv.ParseFloat(strings.TrimSpace(row[col]), 64)
			if err != nil {
				return nil, fmt.Errorf("csv line %d: feature %q: %w", line, name, err)
			}
			features[name] = v
		}
		lats := make(map[string]float64, len(h.lats))
		for col, algo := range h.lats {
			cell := strings.TrimSpace(row[col])
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("csv line %d: latency %q: %w", line, latPrefix+algo, err)
			}
			lats[algo] = v
		}
		if err := d.add(strings.TrimSpace(row[0]), features, "", lats); err != nil {
			return nil, fmt.Errorf("csv line %d: %w", line, err)
		}
	}
}

// ReadFile ingests one benchmark file, dispatching on extension: .csv to
// ReadCSV, .jsonl (or .ndjson) to ReadJSONL.
func ReadFile(path string, algorithms map[string][]string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	var d *Dataset
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		d, err = ReadCSV(f, algorithms)
	case ".jsonl", ".ndjson":
		d, err = ReadJSONL(f, algorithms)
	default:
		return nil, fmt.Errorf("dataset %s: unsupported extension %q (want .csv, .jsonl, or .ndjson)", path, ext)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", path, err)
	}
	return d, nil
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// parseArgs parses args over the flag defaults, exactly as main does.
func parseArgs(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("pmlmpi-train", flag.ContinueOnError)
	opts := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return *opts
}

// goldenSweepSHA256 is the SHA-256 of the bundle `pmlmpi-train
// -synthetic-sweep -seed 1` writes. Any change to the sweep, the split, the
// learner or the encoder moves it; a pure speed-up of the learner must not.
const goldenSweepSHA256 = "5987e11d868817f8673a67c1cf987e9f2ee956d9f957f4143b96c25339be2aaa"

func TestSyntheticSweepGolden(t *testing.T) {
	// The golden is pinned on amd64. On other architectures the compiler
	// may fuse gini's `g -= p*p` into one FMA instruction, which rounds
	// once instead of twice and can move thresholds, and so the bytes.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	out := filepath.Join(t.TempDir(), "bundle.json")
	opts := parseArgs(t, "-synthetic-sweep", "-seed", "1", "-quiet", "-out", out)
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenSweepSHA256 {
		t.Fatalf("bundle SHA-256 = %s, want %s (%d bytes)", got, goldenSweepSHA256, len(data))
	}
}

// TestBadFlagsFailBeforeTraining holds pmlmpi-train to its flags: every
// out-of-range value is an error that names the flag, returned before the
// sweep runs, never a silent default.
func TestBadFlagsFailBeforeTraining(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		flags []string // each must be named in the error
	}{
		{"negative trees", []string{"-trees", "-5"}, []string{"-trees"}},
		{"negative depth", []string{"-depth", "-1"}, []string{"-depth"}},
		{"negative min leaf", []string{"-min-samples-leaf", "-2"}, []string{"-min-samples-leaf"}},
		{"feature frac NaN", []string{"-feature-frac", "NaN"}, []string{"-feature-frac"}},
		{"feature frac above 1", []string{"-feature-frac", "7"}, []string{"-feature-frac"}},
		{"feature frac negative", []string{"-feature-frac", "-0.5"}, []string{"-feature-frac"}},
		{"test frac 1", []string{"-test-frac", "1"}, []string{"-test-frac"}},
		{"test frac negative", []string{"-test-frac", "-0.1"}, []string{"-test-frac"}},
		{"test frac NaN", []string{"-test-frac", "NaN"}, []string{"-test-frac"}},
		{"unknown format", []string{"-format", "xml"}, []string{"-format"}},
		{"all bad", []string{"-trees", "-5", "-depth", "-1", "-min-samples-leaf", "-1",
			"-feature-frac", "NaN", "-test-frac", "1", "-format", "xml"},
			[]string{"-trees", "-depth", "-min-samples-leaf", "-feature-frac", "-test-frac", "-format"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "bundle.json")
			opts := parseArgs(t, append([]string{"-synthetic-sweep", "-quiet", "-out", out}, tc.args...)...)
			err := run(opts)
			if err == nil {
				t.Fatal("run accepted bad flags")
			}
			for _, f := range tc.flags {
				if !strings.Contains(err.Error(), f+" ") && !strings.Contains(err.Error(), f+")") {
					t.Errorf("error does not name %s: %v", f, err)
				}
			}
			if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
				t.Errorf("a bundle was written despite bad flags (stat: %v)", statErr)
			}
		})
	}

	opts := parseArgs(t, "-quiet")
	if err := run(opts); err == nil || !strings.Contains(err.Error(), "nothing to train on") {
		t.Errorf("run without inputs = %v, want the nothing-to-train-on error", err)
	}
}

// TestDefaultFlagsValid pins that the flag defaults themselves pass
// validation, so the golden run above exercises the real defaults.
func TestDefaultFlagsValid(t *testing.T) {
	if err := parseArgs(t, "-synthetic-sweep").validate(); err != nil {
		t.Fatal(err)
	}
}

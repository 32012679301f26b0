package bundle

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/forest"
)

// TestReleasedBundleRefusesEveryEncoder: a released bundle holds only its
// compiled arenas, so each encoder fails with ErrReleased, naming the
// collective, and neither writer leaves a file behind. The same bundle
// encodes before the release.
func TestReleasedBundleRefusesEveryEncoder(t *testing.T) {
	b, err := Parse([]byte(minimalBundle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Encode(); err != nil {
		t.Fatalf("Encode before Release: %v", err)
	}
	b.Release()
	dir := t.TempDir()
	for name, encode := range map[string]func() ([]byte, error){
		"Encode":          b.Encode,
		"EncodeBinary":    b.EncodeBinary,
		"WriteFile":       func() ([]byte, error) { return b.WriteFile(filepath.Join(dir, "b.json")) },
		"WriteFileBinary": func() ([]byte, error) { return b.WriteFileBinary(filepath.Join(dir, "b.pmlb")) },
	} {
		data, err := encode()
		if !errors.Is(err, ErrReleased) || data != nil {
			t.Errorf("%s on a released bundle = %d bytes, %v; want no bytes and ErrReleased", name, len(data), err)
			continue
		}
		t.Logf("%s: %v", name, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("writers left %d files behind: %v", len(left), left)
	}
}

// TestReleaseKeepsTheCompiledForest: Release drops the pointer trees and
// keeps the arena compiled before it. Compiled returns that same arena and
// never compiles again (there is nothing left to compile from), and the
// tree and class counts read from it.
func TestReleaseKeepsTheCompiledForest(t *testing.T) {
	b, err := Parse([]byte(minimalBundle))
	if err != nil {
		t.Fatal(err)
	}
	c := b.Collectives["allgather"]
	cf := c.Compiled()
	want, err := c.Forest.Predict([]float64{11, 2})
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if c.Forest != nil {
		t.Fatal("Release kept the pointer trees of a compiled collective")
	}
	for i := 0; i < 2; i++ {
		if got := c.Compiled(); got != cf {
			t.Fatalf("Compiled after Release = %p, want the arena built before it (%p)", got, cf)
		}
	}
	if c.NumTrees() != 1 || c.NClasses() != 2 {
		t.Errorf("released collective reports %d trees and %d classes, want 1 and 2", c.NumTrees(), c.NClasses())
	}
	got, err := cf.Predict([]float64{11, 2})
	if err != nil || got.Class != want.Class {
		t.Errorf("released collective predicts %+v, %v; want class %d", got, err, want.Class)
	}
	b.Release() // a second release changes nothing
	if c.Compiled() != cf {
		t.Error("a second Release replaced the compiled forest")
	}
}

// TestReleaseKeepsTreesThatDidNotCompile: an in-memory collective whose
// forest does not compile keeps its pointer trees through Release, and its
// counts read from them; its compiled neighbour is released.
func TestReleaseKeepsTreesThatDidNotCompile(t *testing.T) {
	broken := &forest.Forest{NClasses: 2, Trees: []forest.Tree{{Nodes: []forest.Node{
		{F: 0, T: 0.5, L: 1, R: 2}, {F: -1, D: []float64{1, 0}}, {F: -1, D: []float64{1}}}}}}
	good := &forest.Forest{NClasses: 3, Trees: []forest.Tree{{Nodes: []forest.Node{{F: -1, D: []float64{0, 1, 0}}}}}}
	b := &Bundle{Collectives: map[string]*Collective{
		"allgather": {Name: "allgather", Features: []int{2}, FeatureNames: []string{"log2_msg_size"}, Forest: broken},
		"alltoall":  {Name: "alltoall", Features: []int{2}, FeatureNames: []string{"log2_msg_size"}, Forest: good},
	}}
	b.Release()
	ag, aa := b.Collectives["allgather"], b.Collectives["alltoall"]
	if ag.Compiled() != nil || ag.Forest != broken {
		t.Errorf("uncompiled collective: compiled %v, trees kept %v; want nil and true", ag.Compiled(), ag.Forest == broken)
	}
	if ag.NumTrees() != 1 || ag.NClasses() != 2 {
		t.Errorf("uncompiled collective reports %d trees and %d classes, want 1 and 2", ag.NumTrees(), ag.NClasses())
	}
	if aa.Compiled() == nil || aa.Forest != nil {
		t.Errorf("compiled collective: compiled %v, trees kept %v; want an arena and no trees", aa.Compiled(), aa.Forest != nil)
	}
	if data, err := b.Encode(); err == nil || data != nil {
		t.Errorf("Encode of a partly released bundle = %d bytes, %v; want an error", len(data), err)
	}
}

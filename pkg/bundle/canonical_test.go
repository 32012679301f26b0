package bundle_test

import (
	"os"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/bundle"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// TestScannerTakesRealBundles pins that real bundles load on the fast path:
// the scanner accepts, rather than declines, the paper bundle, the
// trainer-emitted fixture and Encode's output, and decodes each exactly as
// encoding/json does. A format change that sent every load down the
// reflective path would pass every other test, only slower.
func TestScannerTakesRealBundles(t *testing.T) {
	encoded, err := synth.MustNew(synth.Config{Seed: 7}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{"synth Encode": encoded}
	for _, path := range []string{"../../.pmlbench/bundle_all_full.json", binFixture} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[path] = data
	}
	for name, data := range inputs {
		got := bundle.ParseCanonical(data)
		if got == nil {
			t.Errorf("%s: the scanner declined it", name)
			continue
		}
		want, err := bundle.ParseReflective(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bundle.SameBundle(got, want) {
			t.Errorf("%s: the scanner and encoding/json decode different bundles", name)
		}
	}
}

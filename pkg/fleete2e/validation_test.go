package fleete2e

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pml-mpi/pmlmpi/pkg/gateway"
	"github.com/pml-mpi/pmlmpi/pkg/obs"
	"github.com/pml-mpi/pmlmpi/pkg/synth"
)

// TestTiersAcceptAndRejectTheSameBodies posts one corpus of well-formed,
// odd and malformed select bodies to a server directly and to a gateway in
// front of an identical one, on both select endpoints. The tiers share one
// request decoder, so the verdict — status code, and for rejections the
// error text — must not depend on which tier a client talks to. Before the
// shared decoder the server took `{...}xyz` (200) where the gateway said 400,
// and the gateway's batch path was lenient where its single path was strict.
func TestTiersAcceptAndRejectTheSameBodies(t *testing.T) {
	bundleData, err := synth.JSON(synth.Config{Seed: 7, Collectives: []string{"allgather", "broadcast"}})
	if err != nil {
		t.Fatalf("synth bundle: %v", err)
	}
	server := newServeStack(t, bundleData).srv
	gw, err := gateway.New(obs.NewForTest(), gateway.Config{
		Replicas: []gateway.ReplicaSpec{{ID: "r0", URL: newServeStack(t, bundleData).srv.URL}},
	})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	gwts := httptest.NewServer(gw)
	t.Cleanup(gwts.Close)

	feats, err := json.Marshal(synth.Points(7, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	item := `{"collective":"allgather","features":` + string(feats) + `}`
	corpus := []struct {
		name, body string
		wantSingle int // expected status on /v1/select, both tiers
		wantBatch  int // expected status on /v1/select/batch, both tiers
	}{
		{"canonical single", item, 200, 400},
		{"canonical batch", `{"requests":[` + item + `,` + item + `]}`, 400, 200},
		{"whitespace everywhere", " \n" + strings.ReplaceAll(item, ":", " : ") + "\t\n", 200, 400},
		{"unknown key rides along", `{"trace":true,"requests":[` + item + `],"collective":"allgather","features":` + string(feats) + `}`, 200, 200},
		{"other key case", strings.Replace(item, `"collective"`, `"Collective"`, 1), 200, 400},
		{"escaped key", strings.Replace(item, `"collective"`, `"\u0063ollective"`, 1), 200, 400},
		{"trailing garbage", item + "xyz", 400, 400},
		{"trailing garbage after batch", `{"requests":[` + item + `]}]`, 400, 400},
		{"second value", item + " " + item, 400, 400},
		{"truncated", item[:len(item)-1], 400, 400},
		{"truncated batch", `{"requests":[` + item, 400, 400},
		{"empty body", "", 400, 400},
		{"only whitespace", "  \n", 400, 400},
		{"null", "null", 400, 400},
		{"array", "[" + item + "]", 400, 400},
		{"empty object", "{}", 400, 400},
		{"null collective", `{"collective":null,"features":` + string(feats) + `}`, 400, 400},
		{"numeric collective", `{"collective":7,"features":` + string(feats) + `}`, 400, 400},
		{"string feature", `{"collective":"allgather","features":{"ppn":"4"}}`, 400, 400},
		{"null feature", `{"collective":"allgather","features":{"ppn":null}}`, 422, 400},
		{"leading zero", `{"collective":"allgather","features":{"ppn":04}}`, 400, 400},
		{"bare fraction", `{"collective":"allgather","features":{"ppn":.5}}`, 400, 400},
		{"hex number", `{"collective":"allgather","features":{"ppn":0x10}}`, 400, 400},
		{"out of range number", `{"collective":"allgather","features":{"ppn":1e999}}`, 400, 400},
		{"trailing comma", `{"collective":"allgather",}`, 400, 400},
		{"requests not an array", `{"requests":{"collective":"allgather"}}`, 400, 400},
		{"null item", `{"requests":[null]}`, 400, 200},
		{"empty batch", `{"requests":[]}`, 400, 400},
		{"invalid utf-8 name", "{\"collective\":\"all\xffgather\",\"features\":" + string(feats) + "}", 422, 400},
		{"unknown collective", `{"collective":"scan","features":` + string(feats) + `}`, 422, 400},
		{"missing feature", `{"collective":"allgather","features":{}}`, 422, 400},
		// Batch items the gateway forwards as the client wrote them, where it
		// used to forward a re-encoding of what it had decoded.
		{"item with unknown fields", `{"requests":[{"trace":{"ids":[1,2]},"collective":"allgather","features":` + string(feats) + `,"note":"x"}]}`, 400, 200},
		{"item with other key case", `{"requests":[{"Collective":"allgather","FEATURES":` + string(feats) + `}]}`, 400, 200},
		{"item with escaped keys", `{"requests":[{"\u0063ollective":"allgather","featur\u0065s":` + string(feats) + `}]}`, 400, 200},
		{"item with escaped value", `{"requests":[{"collective":"all\u0067ather","features":` + string(feats) + `}]}`, 400, 200},
		{"item with duplicate keys", `{"requests":[{"collective":"scan","collective":"allgather","features":{},"features":` + string(feats) + `}]}`, 400, 200},
		{"item with a duplicate feature", `{"requests":[{"collective":"allgather","features":` + strings.Replace(string(feats), `{`, `{"ppn":-1,`, 1) + `}]}`, 400, 200},
		{"odd item among canonical ones", `{"requests":[` + item + `,{"collective":"broadcast","features":` + string(feats) + `,"x":null},` + item + `,{"collective":"scan","features":{}}]}`, 400, 200},
		{"envelope key twice", `{"requests":[` + item + `,` + item + `],"requests":[{"features":` + string(feats) + `}]}`, 400, 200},
		{"envelope key twice, then null", `{"requests":[` + item + `],"requests":null}`, 400, 400},
	}

	post := func(base, path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s%s: %v", base, path, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Error     string `json:"error"`
			Algorithm string `json:"algorithm"`
			Errors    int    `json:"errors"`
			Results   []struct {
				Decision struct {
					Collective string `json:"collective"`
					Algorithm  string `json:"algorithm"`
				} `json:"decision"`
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatalf("POST %s%s: reply is not JSON: %v: %q", base, path, err, raw)
		}
		if resp.StatusCode == http.StatusOK {
			says := reply.Algorithm + "/" + string(rune('0'+reply.Errors))
			for _, res := range reply.Results {
				says += " " + res.Decision.Collective + ":" + res.Decision.Algorithm + res.Error
			}
			return resp.StatusCode, says
		}
		return resp.StatusCode, reply.Error
	}

	for _, tc := range corpus {
		for path, want := range map[string]int{"/v1/select": tc.wantSingle, "/v1/select/batch": tc.wantBatch} {
			serverCode, serverSays := post(server.URL, path, tc.body)
			gatewayCode, gatewaySays := post(gwts.URL, path, tc.body)
			if serverCode != want || gatewayCode != want {
				t.Errorf("%s on %s: server %d, gateway %d, want %d on both (server: %q, gateway: %q)",
					tc.name, path, serverCode, gatewayCode, want, serverSays, gatewaySays)
				continue
			}
			if serverSays != gatewaySays {
				t.Errorf("%s on %s: both %d, but server says %q and gateway says %q",
					tc.name, path, want, serverSays, gatewaySays)
			}
		}
	}
}

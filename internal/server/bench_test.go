package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/registry"
	"repro/internal/server"
)

// BenchmarkServerAnswer measures the full HTTP answer path — JSON decode,
// spec parsing, concurrent product evaluation on x̂, JSON encode — against
// one registered tenant. This is the steady-state hot path of the daemon
// (registration happens once per tenant, answers forever after); CI runs it
// with -benchtime=1x as a smoke test so a regression that breaks or hangs
// the serving path fails loudly.
func BenchmarkServerAnswer(b *testing.B) {
	reg, err := registry.Open("", 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.NewWithRegistry(server.Config{}, reg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	data := make([]float64, 2*16*16)
	for i := range data {
		data[i] = float64((i * 7) % 13)
	}
	regBody, _ := json.Marshal(map[string]any{
		"domain": []int{2, 16, 16}, "queries": []string{"I,R,T", "T,P,R"},
		"data": data, "eps": 1.0, "seed": 7, "restarts": 1,
	})
	resp, err := http.Post(ts.URL+"/v1/engines", "application/json", bytes.NewReader(regBody))
	if err != nil {
		b.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("register: status %d: %s", resp.StatusCode, raw)
	}
	var regResp server.RegisterResponse
	if err := json.Unmarshal(raw, &regResp); err != nil {
		b.Fatal(err)
	}

	// A production-shaped batch: hundreds of queries drawn from a handful
	// of specs. ParseProducts shares predicate-set instances across
	// identical specs, so the engine answers this with at most one sweep
	// per distinct factor set (trailing factors shared between specs are
	// contracted once) instead of one per query.
	specs := []string{"I,T,P", "T,P,I", "I,P,P", "T,I,R"}
	queries := make([]string, 512)
	for i := range queries {
		queries[i] = specs[i%len(specs)]
	}
	ansBody, _ := json.Marshal(map[string]any{"queries": queries})
	url := ts.URL + "/v1/engines/" + regResp.Key + "/answer"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(ansBody))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("answer: status %d", resp.StatusCode)
		}
	}
}

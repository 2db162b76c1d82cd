package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vpart"
	"vpart/internal/daemon/config"
	"vpart/internal/daemon/metrics"
	"vpart/internal/daemon/service"
)

// newTestServer starts the full daemon HTTP stack (service + server) on an
// httptest listener. The trigger policy is eager (no debounce) so wait=1
// round trips finish quickly.
func newTestServer(t *testing.T, pol service.Policy) (*httptest.Server, *Server, *metrics.Registry) {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := metrics.NewRegistry()
	svc := service.New(service.Config{
		Logger:  logger,
		Metrics: reg,
		Policy:  pol,
		Defaults: service.Defaults{
			Solver:         "sa",
			TimeLimit:      30 * time.Second,
			PortfolioSeeds: 2,
		},
		MaxSessions: 8,
	})
	srv := New(svc, config.Default(), logger, reg)
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Errorf("service close: %v", err)
		}
	})
	return ts, srv, reg
}

// do issues a request and decodes the JSON response into out (skipped for
// nil out or 204 responses).
func do(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// createBody builds a session-create request body.
func createBody(t *testing.T, name string, inst *vpart.Instance, opts SessionOptions, cons *vpart.Constraints) []byte {
	t.Helper()
	var instBuf bytes.Buffer
	if err := vpart.EncodeInstance(&instBuf, inst); err != nil {
		t.Fatal(err)
	}
	req := CreateSessionRequest{Name: name, Instance: instBuf.Bytes(), Options: opts}
	if cons != nil {
		var cbuf bytes.Buffer
		if err := vpart.EncodeConstraints(&cbuf, cons); err != nil {
			t.Fatal(err)
		}
		req.Constraints = cbuf.Bytes()
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func deltaBody(t *testing.T, d vpart.WorkloadDelta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := vpart.EncodeDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHTTPSessionLifecycle(t *testing.T) {
	ts, _, _ := newTestServer(t, service.Policy{Debounce: time.Millisecond})
	inst, err := vpart.RandomInstance(vpart.ClassA(3, 6, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	body := createBody(t, "life", inst, SessionOptions{Sites: 2, Solver: "sa", Seed: 1, TimeLimit: "30s"}, nil)

	var state service.SessionState
	if code := do(t, "POST", ts.URL+"/v1/sessions?wait=1", body, &state); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if state.Incumbent == nil || state.Resolves != 1 {
		t.Fatalf("create wait=1 did not serve a solved state: %+v", state)
	}
	if state.IncumbentCost.Objective <= 0 {
		t.Fatalf("incumbent cost not populated: %+v", state.IncumbentCost)
	}

	var list []service.SessionState
	if code := do(t, "GET", ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 1 || list[0].Name != "life" {
		t.Fatalf("list = %+v", list)
	}

	if code := do(t, "GET", ts.URL+"/v1/sessions/life", nil, &state); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}

	var snap vpart.SessionSnapshot
	if code := do(t, "GET", ts.URL+"/v1/sessions/life/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if snap.Incumbent == nil || snap.Sites != 2 {
		t.Fatalf("snapshot incomplete: sites=%d incumbent=%v", snap.Sites, snap.Incumbent)
	}

	// Duplicate create collides.
	var errResp ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions", body, &errResp); code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d (%+v)", code, errResp)
	}

	if code := do(t, "DELETE", ts.URL+"/v1/sessions/life", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/sessions/life", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, service.Policy{Debounce: time.Millisecond})
	var errResp ErrorResponse

	// Malformed JSON.
	if code := do(t, "POST", ts.URL+"/v1/sessions", []byte(`{"name":`), &errResp); code != http.StatusBadRequest {
		t.Fatalf("malformed create: status %d", code)
	}
	// Unknown top-level field.
	if code := do(t, "POST", ts.URL+"/v1/sessions", []byte(`{"name":"x","bogus":1}`), &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
	// Missing sites.
	inst, err := vpart.RandomInstance(vpart.ClassA(3, 4, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions", createBody(t, "x", inst, SessionOptions{}, nil), &errResp); code != http.StatusBadRequest {
		t.Fatalf("sites=0 create: status %d", code)
	}
	// A solver no resolve could run.
	if code := do(t, "POST", ts.URL+"/v1/sessions", createBody(t, "x", inst, SessionOptions{Sites: 2, Solver: "nope"}, nil), &errResp); code != http.StatusBadRequest {
		t.Fatalf("solver=nope create: status %d", code)
	}
	// Delta for an unknown session.
	if code := do(t, "POST", ts.URL+"/v1/sessions/ghost/deltas", []byte(`{"ops":[]}`), &errResp); code != http.StatusNotFound {
		t.Fatalf("delta to unknown session: status %d", code)
	}
	// Delta with an unknown op tag.
	body := createBody(t, "x", inst, SessionOptions{Sites: 2, Solver: "sa", Seed: 1}, nil)
	if code := do(t, "POST", ts.URL+"/v1/sessions?wait=1", body, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/x/deltas", []byte(`{"ops":[{"op":"explode"}]}`), &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad delta op: status %d", code)
	}
	if !strings.Contains(errResp.Error, "explode") {
		t.Fatalf("error envelope does not name the bad op: %q", errResp.Error)
	}
	// Force-resolving an unknown session 404s.
	if code := do(t, "POST", ts.URL+"/v1/sessions/ghost/resolve", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("resolve unknown session: status %d", code)
	}
}

func TestHTTPProbesAndMetrics(t *testing.T) {
	ts, srv, _ := newTestServer(t, service.Policy{Debounce: time.Millisecond})

	var health map[string]string
	if code := do(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}

	var ready struct {
		Ready  bool `json:"ready"`
		Checks []struct {
			Name string `json:"name"`
			OK   bool   `json:"ok"`
		} `json:"checks"`
	}
	if code := do(t, "GET", ts.URL+"/readyz", nil, &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz armed: %d %+v", code, ready)
	}
	if len(ready.Checks) != 3 {
		t.Fatalf("readyz ran %d checks, want 3", len(ready.Checks))
	}

	// Disarming (drain) flips readiness without failing the self-checks.
	srv.SetReady(false)
	if code := do(t, "GET", ts.URL+"/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz disarmed: %d %+v", code, ready)
	}
	srv.SetReady(true)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "vpartd_http_requests_total") {
		t.Fatalf("/metrics does not expose the HTTP request counter:\n%s", text)
	}
	if !strings.Contains(string(text), `path="/healthz"`) {
		t.Fatalf("/metrics labels requests by route pattern:\n%s", text)
	}
}

// TestDaemonEndToEnd is the acceptance test from the issue: start vpartd's
// HTTP stack in-process, create a session from the TPC-C instance with
// placement constraints, stream a 5-step Drift trace through the HTTP API,
// and assert that (a) every served incumbent satisfies the constraints,
// (b) the resolve stats show warm resolves engaged, and (c) /metrics exposes
// non-zero solve-latency and pending-delta series.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-resolve TPC-C drift run")
	}
	ts, _, _ := newTestServer(t, service.Policy{Debounce: time.Millisecond})

	inst := vpart.TPCC()
	cons := &vpart.Constraints{
		PinTxns: []vpart.PinTxn{{Txn: inst.Workload.Transactions[0].Name, Site: 0}},
		PinAttrs: []vpart.PinAttr{{
			Attr: vpart.QualifiedAttr{
				Table: inst.Schema.Tables[0].Name,
				Attr:  inst.Schema.Tables[0].Attributes[0].Name,
			},
			Site: 1,
		}},
	}
	body := createBody(t, "tpcc", inst,
		SessionOptions{Sites: 3, Solver: "sa", Seed: 1, TimeLimit: "30s"}, cons)

	var state service.SessionState
	if code := do(t, "POST", ts.URL+"/v1/sessions?wait=1", body, &state); code != http.StatusCreated {
		t.Fatalf("create: status %d (%+v)", code, state)
	}
	checkIncumbent := func(step int) {
		t.Helper()
		var snap vpart.SessionSnapshot
		if code := do(t, "GET", ts.URL+"/v1/sessions/tpcc/snapshot", nil, &snap); code != http.StatusOK {
			t.Fatalf("step %d: snapshot status %d", step, code)
		}
		if snap.Incumbent == nil {
			t.Fatalf("step %d: no incumbent served", step)
		}
		m, err := vpart.NewModelConstrained(snap.Instance, vpart.DefaultModelOptions(), snap.Constraints)
		if err != nil {
			t.Fatalf("step %d: model: %v", step, err)
		}
		p, err := vpart.FromAssignment(m, snap.Incumbent)
		if err != nil {
			t.Fatalf("step %d: incumbent does not map onto the drifted instance: %v", step, err)
		}
		if err := snap.Constraints.Check(m, p); err != nil {
			t.Errorf("step %d: served incumbent violates constraints: %v", step, err)
		}
	}
	checkIncumbent(0)

	deltas, err := vpart.Drift(inst, 5, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStart := 0, 0
	for i, d := range deltas {
		if code := do(t, "POST", ts.URL+"/v1/sessions/tpcc/deltas?wait=1", deltaBody(t, d), &state); code != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, code)
		}
		if state.LastStats == nil {
			t.Fatalf("delta %d: no resolve stats after wait=1", i)
		}
		if state.LastStats.Warm {
			warm++
		}
		if state.LastStats.WarmStart {
			warmStart++
		}
		checkIncumbent(i + 1)
	}
	if warm != len(deltas) {
		t.Errorf("warm resolves engaged on %d/%d drift steps", warm, len(deltas))
	}
	if warmStart == 0 {
		t.Error("no drift resolve actually started from the previous incumbent")
	}
	if state.Resolves < 1+len(deltas) {
		t.Errorf("resolve counter %d after %d drift steps", state.Resolves, len(deltas))
	}
	if len(state.Trajectory) != state.Resolves {
		t.Errorf("trajectory has %d points for %d resolves", len(state.Trajectory), state.Resolves)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	assertSeries := func(name string, nonZero bool) {
		t.Helper()
		found := false
		for _, line := range strings.Split(string(text), "\n") {
			if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
				continue
			}
			found = true
			if nonZero {
				fields := strings.Fields(line)
				if len(fields) == 2 && fields[1] != "0" {
					return
				}
			} else {
				return
			}
		}
		if found && nonZero {
			t.Errorf("/metrics series %s present but all-zero", name)
		} else if !found {
			t.Errorf("/metrics is missing series %s", name)
		}
	}
	assertSeries("vpartd_solve_duration_seconds_count", true)
	assertSeries("vpartd_solve_duration_seconds_sum", true)
	assertSeries(fmt.Sprintf("vpartd_pending_delta_ops{session=%q}", "tpcc"), false)
	assertSeries("vpartd_resolve_wins_total", true)
	assertSeries("vpartd_incumbent_cost", true)
}
